// mutation_stream.hpp — perturbation processes behind a registry.
//
// A MutationStream says HOW the graph moves: each step() inspects the
// current DynamicGraph and emits the next batch of EdgeMutations for the
// driver to apply. Streams mirror the workload registry's contract exactly:
// construction from a spec string, all randomness from the caller's Rng at
// step time, reset() to replay the process — so one seed pins the whole
// perturbation trajectory, independent of thread count.
//
// Registry specs (make_mutation_stream):
//   "churn:<rate>"    per step, <rate> random edge events: each a coin flip
//                     between removing a uniform existing edge and adding a
//                     uniform absent pair. A fractional <rate> contributes
//                     its remainder as a Bernoulli extra event; <rate> is
//                     at most 1e6. The steady-state perturbation of
//                     Achlioptas–Siminelakis.
//   "fail:<fraction>" one-shot: the first step removes floor(fraction * m)
//                     distinct uniform edges; later steps are empty. The
//                     robustness-surface axis of bench_e13_dynamic.
//   "targeted:<k>"    one-shot attack: fail the k highest-degree nodes
//                     (ties by lower id) — the classic scale-free attack
//                     contrast to uniform failures.
//   "trace:<path>"    replay of a recorded JSONL trace (one
//                     {"step":..,"op":..,"u":..,"v":..} object per line;
//                     save_mutation_trace / load_mutation_trace round-trip).
//                     Call i returns the events recorded for step i; the
//                     stream is empty after the last recorded step.
//
// Streams emit *requests*: DynamicGraph::apply filters no-ops (churn can
// race itself across steps; replayed traces may hit an already-mutated
// graph), so the delta — not the stream — is the ground truth of change.
#pragma once

/// \file
/// \brief MutationStream: churn / failure / attack / trace-replay
/// perturbation generators behind a spec-string registry.

#include <memory>
#include <string>
#include <vector>

#include "dynamic/dynamic_graph.hpp"
#include "runtime/rng.hpp"

namespace nav::dynamic {

/// A deterministic perturbation process over one DynamicGraph. Stateful
/// only where the model demands it (one-shot arming, trace position); all
/// randomness comes from the caller's Rng.
class MutationStream {
 public:
  virtual ~MutationStream() = default;  ///< deleted through the base

  /// The registry spec this stream was built from (tables, jsonl rows).
  [[nodiscard]] virtual std::string name() const = 0;

  /// Emits the next batch of mutation requests against the current graph
  /// state. An empty batch means "nothing this step" (exhausted one-shots,
  /// drained traces).
  [[nodiscard]] virtual std::vector<EdgeMutation> step(const DynamicGraph& g,
                                                       Rng& rng) = 0;

  /// Rewinds internal state (re-arms one-shots, restarts traces) so one
  /// constructed stream can serve many grid cells with identical
  /// perturbations.
  virtual void reset() {}
};

/// Owning handle for registry-built streams.
using MutationStreamPtr = std::unique_ptr<MutationStream>;

/// Builds the stream for `spec`. Throws std::invalid_argument on unknown or
/// malformed specs ("none" is not a stream — drivers treat the absence of a
/// stream as the static case).
[[nodiscard]] MutationStreamPtr make_mutation_stream(const std::string& spec);

/// One registry entry: spec template plus a one-line description.
struct MutationInfo {
  std::string spec;         ///< spec template, e.g. "churn:<rate>"
  std::string description;  ///< what perturbation it models
};

/// The registry contents, in stable order (docs, --help text).
[[nodiscard]] const std::vector<MutationInfo>& mutation_catalog();

/// Writes per-step event batches as a JSONL trace that "trace:<path>"
/// replays: one {"step":..,"op":"add"|"remove"|"fail","u":..,"v":..} object
/// per event. Throws std::runtime_error on I/O failure.
void save_mutation_trace(const std::string& path,
                         const std::vector<std::vector<EdgeMutation>>& steps);

/// Parses a JSONL mutation trace back into per-step batches (index = step).
/// Throws std::runtime_error when the file can't be opened and
/// std::invalid_argument on malformed lines.
[[nodiscard]] std::vector<std::vector<EdgeMutation>> load_mutation_trace(
    const std::string& path);

}  // namespace nav::dynamic
