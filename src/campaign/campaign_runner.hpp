// Campaign execution: the expanded point list, run through the batch
// engine, with a durable checkpoint around every job completion.
//
// Points already present in the result store are skipped outright (that
// is what resume means -- no allocation, no cache warm-up needed); the
// rest are executed in waves, each wave one `parallel_for` on the
// engine's thread pool. Each point journals itself the moment its
// outcome is known, so a crash loses at most the in-flight wave, which
// simply re-runs on resume. Between waves the runner polls the
// cooperative interrupt flag (support/interrupt.hpp): on SIGINT/SIGTERM
// it starts no further wave, lets the wave in flight finish, flushes a
// final checkpoint and reports `interrupted` so the tool can exit with
// the distinct code.
//
// Every allocation here is deterministic, so a killed-and-resumed
// campaign converges to a result set byte-identical to an uninterrupted
// run -- the property tests/campaign_test.cpp proves under crash
// injection.

#ifndef MWL_CAMPAIGN_CAMPAIGN_RUNNER_HPP
#define MWL_CAMPAIGN_CAMPAIGN_RUNNER_HPP

#include "campaign/campaign_spec.hpp"
#include "campaign/result_store.hpp"

#include <cstddef>
#include <vector>

namespace mwl {

struct campaign_run_options {
    /// Worker threads (0 = hardware concurrency).
    std::size_t jobs = 0;
    /// Points started per wave (0 = auto: 4x pool size, min 32).
    /// The wave is the interrupt-latency / lost-work-on-crash unit.
    std::size_t wave = 0;
};

struct campaign_run_summary {
    std::size_t total = 0;            ///< points in the campaign
    std::size_t already_complete = 0; ///< skipped via the checkpoint
    std::size_t executed = 0;         ///< recorded by this run
    std::size_t failed = 0;           ///< of those, recorded as errors
    bool interrupted = false;         ///< stopped early on SIGINT/SIGTERM
};

/// Execute every point of `points` not yet in `store`. The store must
/// belong to this point list (equal fingerprints -- the CLI enforces it).
[[nodiscard]] campaign_run_summary run_campaign(
    const campaign_spec& spec, const std::vector<campaign_point>& points,
    result_store& store, const campaign_run_options& options = {});

} // namespace mwl

#endif // MWL_CAMPAIGN_CAMPAIGN_RUNNER_HPP
