// The from-scratch reference pipeline: the oracle every parity test
// trusts. It is a test-only library (mwl_oracle in CMakeLists.txt) that the
// test executables and bench/iteration_scaling link; libmwl never does.
//
// It redoes, the way the original loop did, exactly what the incremental
// DPAlloc pipeline (PERF.md) replaced:
//   * the resource-type closure as a pairwise-join fixed point,
//   * latency upper bounds rescanned from the H rows every iteration,
//   * the §2.4 metric's pool and slowest-edge counts rescanned from the H
//     rows every iteration,
//   * a cold exact scheduling-set cover every iteration (no memo, no
//     carried bounds or witnesses),
//   * schedulers that rescan the whole graph for ready operations at every
//     control step, S(o) built by probing every (operation, member) pair,
//   * the paper's BindSelect whole: every resource's chain recomputed with
//     the quadratic DP every round, the growth pass's copying absorption
//     probe, and the closing pass that moves each clique to its cheapest
//     common resource by full scan -- the pass libmwl skips because the
//     ratio rule already implies it (DESIGN.md §2.3), so parity with this
//     reference is what pins that finding,
//   * a datapath assembled every iteration.
// Everything else -- the §2.4 candidate choice over those counts, datapath
// assembly, the Eqn. 2 limits, the bound critical path -- is the library's
// own code (core/dpalloc.hpp, core/critical.hpp), so a parity failure
// points at a cache or a fast path, not at a second copy of the algorithm.

#ifndef MWL_TESTS_ORACLE_ORACLE_HPP
#define MWL_TESTS_ORACLE_ORACLE_HPP

#include "bind/bind_select.hpp"
#include "core/dpalloc.hpp"
#include "sched/incomplete_scheduler.hpp"
#include "sched/list_scheduler.hpp"

#include <span>
#include <vector>

namespace mwl::oracle {

/// extract_resource_types as a fixed point of pairwise joins over a
/// std::set: the same closure, in the same order, by contract.
[[nodiscard]] std::vector<op_shape> resource_closure_fixpoint(
    std::span<const op_shape> shapes);

/// schedule_incomplete by full rescan: the same schedule, makespan and
/// scheduling set as the event engine, by contract.
[[nodiscard]] incomplete_schedule_result schedule_incomplete_scan(
    const wordlength_compatibility_graph& wcg, int capacity = 1);

/// list_schedule by full rescan: the same schedule and makespan as the
/// event engine, by contract.
[[nodiscard]] list_schedule_result list_schedule_scan(
    const sequencing_graph& graph, std::span<const int> latencies,
    const type_limits& limits);

/// The original O(k^2) longest-chain DP: canonical sort (start, finish,
/// id), strict-improvement scan (the first maximal predecessor wins),
/// first-index argmax over chain ends. wcg/chains.hpp's sweep must return
/// exactly this chain.
[[nodiscard]] std::vector<timed_op> longest_chain_dp(
    std::span<const timed_op> items);

/// The paper's BindSelect, cheapest-resource pass included: the same
/// binding as bind_select, by contract. Reads only
/// `options.enable_growth`.
[[nodiscard]] binding bind_select_reference(
    const wordlength_compatibility_graph& wcg, std::span<const int> start,
    std::span<const int> latencies, const bind_options& options = {});

/// dpalloc with every cache and fast path replaced by the from-scratch
/// step above: the same datapath and stats as dpalloc, by contract.
[[nodiscard]] dpalloc_result dpalloc_from_scratch(
    const sequencing_graph& graph, const hardware_model& model, int lambda,
    const dpalloc_options& options = {});

} // namespace mwl::oracle

#endif // MWL_TESTS_ORACLE_ORACLE_HPP
