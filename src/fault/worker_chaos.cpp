#include "fault/worker_chaos.h"

#include <stdexcept>

#include "util/rng.h"

namespace syrwatch::fault {

namespace {

/// A batch boundary in [1, max(1, total_batches - 2)]: never batch 0 (a
/// kill before any durable progress is just a slow start, not a resume
/// exercise) and never the final batch (the worker would already be
/// finished by the time the kill lands).
std::size_t draw_batch(std::uint64_t h, std::size_t total_batches) {
  const std::size_t hi =
      total_batches > 2 ? total_batches - 2 : std::size_t{1};
  return 1 + static_cast<std::size_t>(h % hi);
}

}  // namespace

std::string WorkerChaosPlan::describe() const {
  if (events.empty()) return "no process faults";
  std::string out;
  for (const WorkerChaosEvent& event : events) {
    if (!out.empty()) out += "; ";
    switch (event.kind) {
      case WorkerChaosEvent::Kind::kKill:
        out += "kill";
        break;
      case WorkerChaosEvent::Kind::kStall:
        out += "stall";
        break;
      case WorkerChaosEvent::Kind::kGarble:
        out += "garble";
        break;
    }
    out += " worker " + std::to_string(event.worker) + " after batch " +
           std::to_string(event.after_batch);
  }
  return out;
}

WorkerChaosPlan make_worker_chaos(std::string_view name, std::uint64_t seed,
                                  std::size_t workers,
                                  std::size_t total_batches) {
  if (name != "none" && name != "worker-chaos" && name != "worker-stall" &&
      name != "worker-garble")
    throw std::invalid_argument(
        "unknown worker-chaos profile \"" + std::string(name) +
        "\" (try: none, worker-chaos, worker-stall, worker-garble)");
  WorkerChaosPlan plan;
  if (name == "none" || workers == 0 || total_batches == 0) return plan;
  const std::uint64_t root = util::mix64(seed ^ 0xC4A0'5C4A05ULL);
  if (name == "worker-chaos") {
    // Kill every other worker (rounding up) exactly once, at independent
    // hash-drawn boundaries. Half the shards die so the merge must stitch
    // restarted and untouched spools together.
    const std::size_t victims = (workers + 1) / 2;
    for (std::size_t v = 0; v < victims; ++v) {
      WorkerChaosEvent event;
      event.worker = (v * 2) % workers;
      event.after_batch =
          draw_batch(util::mix64(root ^ (v + 1)), total_batches);
      event.kind = WorkerChaosEvent::Kind::kKill;
      plan.events.push_back(event);
    }
    return plan;
  }
  WorkerChaosEvent event;
  if (name == "worker-garble") {
    event.worker = util::mix64(root ^ 0x6A4B) % workers;
    event.after_batch =
        draw_batch(util::mix64(root ^ 0x6A4C), total_batches);
    event.kind = WorkerChaosEvent::Kind::kGarble;
    plan.events.push_back(event);
    return plan;
  }
  event.worker = util::mix64(root ^ 0x57A1) % workers;
  event.after_batch = draw_batch(util::mix64(root ^ 0x57A2), total_batches);
  event.kind = WorkerChaosEvent::Kind::kStall;
  plan.events.push_back(event);
  return plan;
}

const std::vector<std::string>& worker_chaos_names() {
  static const std::vector<std::string> names{"none", "worker-chaos",
                                              "worker-stall", "worker-garble"};
  return names;
}

}  // namespace syrwatch::fault
