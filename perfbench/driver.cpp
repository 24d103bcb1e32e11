// perfbench_driver — the measurement half of the repository benchmark.
//
// Runs one workload through the public API only (vod::emulator /
// engine::fleet constructors, step(), add_slot_hook, spans(), counters(),
// memory_footprint(), link_stats(), getrusage) with the code's default
// options, and prints one JSON record of raw measurements on stdout:
// per-slot step() wall times, online viewers, per-slot schedule hashes,
// construction times, the behaviour aggregates and — for --trace 1 — the
// per-layer totals. perfbench/run.py turns that record into the metrics.
//
//   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
//                    [--trace-dir DIR]
//   perfbench_driver --build-info      (the build record only)
//
// Every workload is a closed loop with one caller: the next step() is issued
// when the previous one returns. --seed becomes the scenario's master_seed
// (single swarm) or the fleet_seed, so the program only sees generated
// inputs.
//
// Every run first steps a warm-up construction a few slots (its hashes join
// the check; its times are not used).
// --trace 0: round(--seconds / nominal horizon seconds) untraced horizons
//   back to back, at least one. Outside every timed step() they construct
//   and drop extra instances of the workload: the set-up samples, spread
//   over the whole run so that they see the same host as the slots do.
// --trace 1: untraced/traced horizon pairs (record_spans plus an in-memory
//   jsonl_sink) in ABBA order, round(--seconds / two nominal horizons) of
//   them, at least two; slot k of one is the same work as slot k of the
//   other, so their per-slot ratios give the tracing overhead and its
//   spread. Fleets then run a hook horizon (a sink that emits at slot 0
//   only, so a bench hook registered last times the serial hooks without
//   the fleet's telemetry emitter) and a traced 1-worker prefix (work
//   inflation and the 1-vs-N worker hash check). With --trace-dir the first
//   traced horizon's spans are written there as one Chrome trace document
//   per shard (pid = swarm index).
//
// Correctness gate: every horizon hashes each slot's metrics
// (vod::golden_mix_metrics for a swarm, the same fold over the merged
// fleet_slot_metrics for a fleet). All horizons of one invocation —
// repeats, traced, untraced, hook, 1 worker — must agree slot by slot on their
// common prefix; each disagreeing slot counts as failed.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "engine/fleet.h"
#include "metrics/process_stats.h"
#include "obs/jsonl_sink.h"
#include "vod/emulator.h"
#include "vod/pipeline_golden.h"
#include "workload/fleet_config.h"
#include "workload/scenario_registry.h"

namespace {

using namespace p2pcd;
using clock_type = std::chrono::steady_clock;

double seconds_since(clock_type::time_point t0) {
    return std::chrono::duration<double>(clock_type::now() - t0).count();
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

struct workload_def {
    const char* name;
    // Registered scenario (single swarm) or fleet (fleet == true).
    const char* registered;
    bool fleet;
    std::size_t threads;
    // Slots of the warm-up construction stepped before anything is timed:
    // the first slots of a process fault in the allocator's arenas. A
    // static population reaches its steady footprint in a couple of slots;
    // the flash crowd grows all horizon, so it warms up a whole horizon.
    std::size_t warmup_slots;
    // Slots of the traced 1-worker fleet prefix (0 for a single swarm).
    std::size_t one_worker_slots;
    // Set-up samples of each untraced timed horizon: `setup_before` before
    // its own construction, then one after every `setup_every_slots` slots
    // (0: none). A fleet samples only while no other fleet is live: a second
    // fleet's pool threads would take fresh malloc arenas and raise the peak
    // RSS. About 100 samples per run at --seconds 40 (75 and 96).
    std::size_t setup_before;
    std::size_t setup_every_slots;
    // Nominal seconds of one horizon on the reference host (4-vCPU Xeon,
    // Release). A run does round(--seconds / nominal) horizons, at least
    // one: the work per run is fixed by --seconds, never by the measured
    // speed, so two commits time the same slots and the tail percentile
    // keeps its sample count.
    double nominal_horizon_s;
};

constexpr workload_def workloads[] = {
    // The paper's per-slot loop at 10x paper scale, on one thread: vod build
    // and core solve, static rows.
    {"metro_swarm", "metro_5k", false, 1, 2, 0, 0, 1, 15.0},
    // Arrivals every slot, ISP ledger writes, the serial coupling hook,
    // admission queues and 8 shards on 4 workers (barrier, straggler, cost
    // caches shed every slot): the write-and-churn counterpart of metro_swarm.
    {"flash_coupled", "fleet_coupled_flash", true, 4, 25, 25, 3, 0, 1.25},
};

// ---------------------------------------------------------------------------
// One system under test: a single emulator or a fleet, behind the calls the
// benchmark times.
// ---------------------------------------------------------------------------

void mix_fleet_slot(std::uint64_t& h, const engine::fleet_slot_metrics& m) {
    vod::golden_mix(h, m.time);
    vod::golden_mix(h, static_cast<std::uint64_t>(m.online_peers));
    vod::golden_mix(h, static_cast<std::uint64_t>(m.requests));
    vod::golden_mix(h, static_cast<std::uint64_t>(m.transfers));
    vod::golden_mix(h, static_cast<std::uint64_t>(m.inter_isp_transfers));
    vod::golden_mix(h, m.inter_isp_fraction);
    vod::golden_mix(h, m.social_welfare);
    vod::golden_mix(h, static_cast<std::uint64_t>(m.chunks_due));
    vod::golden_mix(h, static_cast<std::uint64_t>(m.chunks_missed));
    vod::golden_mix(h, m.miss_rate);
    vod::golden_mix(h, static_cast<std::uint64_t>(m.auction_bids));
}

struct slot_sample {
    double step_s = 0.0;
    std::uint64_t online = 0;
    std::uint64_t requests = 0;
    std::uint64_t hash = 0;
};

class system_under_test {
public:
    system_under_test(const workload_def& w, std::uint64_t seed, std::size_t threads,
                      obs::telemetry_options telemetry) {
        if (w.fleet) {
            engine::fleet_options o;
            o.config = workload::builtin_fleets().make(w.registered);
            o.config.fleet_seed = seed;
            o.threads = threads;
            o.telemetry = telemetry;  // the fleet forwards record_spans to its shards
            fleet_ = std::make_unique<engine::fleet>(std::move(o));
            num_slots_ = fleet_->num_slots();
        } else {
            vod::emulator_options o;
            o.config = workload::builtin_scenarios().make(w.registered);
            o.config.master_seed = seed;
            o.telemetry = telemetry;
            num_slots_ = static_cast<std::size_t>(
                o.config.horizon_seconds / o.config.slot_seconds + 0.5);
            emulator_ = std::make_unique<vod::emulator>(std::move(o));
        }
    }

    [[nodiscard]] std::size_t num_slots() const { return num_slots_; }
    [[nodiscard]] std::size_t num_shards() const {
        return fleet_ ? fleet_->num_swarms() : 1;
    }
    [[nodiscard]] engine::fleet* fleet() { return fleet_.get(); }

    slot_sample step() {
        slot_sample s;
        std::uint64_t h = vod::golden_seed;
        const auto t0 = clock_type::now();
        last_step_start_ = t0;
        if (fleet_) {
            const auto& m = fleet_->step();
            s.step_s = seconds_since(t0);
            s.online = m.online_peers;
            s.requests = m.requests;
            mix_fleet_slot(h, m);
        } else {
            const auto& m = emulator_->step();
            s.step_s = seconds_since(t0);
            s.online = m.online_peers;
            s.requests = m.requests;
            vod::golden_mix_metrics(h, m);
        }
        s.hash = h;
        return s;
    }
    [[nodiscard]] clock_type::time_point last_step_start() const {
        return last_step_start_;
    }

    [[nodiscard]] const vod::emulator& shard_emulator(std::size_t i) const {
        return fleet_ ? fleet_->shard_at(i).emulator() : *emulator_;
    }
    // Σ over every phase of shard i's span totals (0 when spans are off).
    [[nodiscard]] double shard_busy(std::size_t i) const {
        const obs::span_recorder& r = shard_emulator(i).spans();
        double total = 0.0;
        for (std::size_t p = 0; p < static_cast<std::size_t>(obs::phase::count); ++p)
            total += r.total_seconds(static_cast<obs::phase>(p));
        return total;
    }
    [[nodiscard]] double phase_seconds(obs::phase p) const {
        double total = 0.0;
        for (std::size_t i = 0; i < num_shards(); ++i)
            total += shard_emulator(i).spans().total_seconds(p);
        return total;
    }

    [[nodiscard]] obs::counter_registry counters() {
        return fleet_ ? fleet_->merged_counters() : emulator_->counters();
    }
    [[nodiscard]] std::size_t footprint_bytes() const {
        return fleet_ ? fleet_->memory_footprint().total()
                      : emulator_->memory_footprint().total();
    }
    [[nodiscard]] double total_welfare() const {
        return fleet_ ? fleet_->total_welfare() : emulator_->total_welfare();
    }
    [[nodiscard]] double miss_rate() const {
        return fleet_ ? fleet_->overall_miss_rate() : emulator_->overall_miss_rate();
    }
    [[nodiscard]] double inter_isp_fraction() const {
        return fleet_ ? fleet_->overall_inter_isp_fraction()
                      : emulator_->overall_inter_isp_fraction();
    }
    [[nodiscard]] double transit_cost() const {
        if (fleet_) return fleet_->economy_enabled() ? fleet_->merged_bill().total_cost : 0.0;
        return emulator_->economy_enabled() ? emulator_->bill().total_cost : 0.0;
    }
    [[nodiscard]] std::size_t price_epochs() const {
        if (fleet_ && fleet_->coupling_enabled()) return fleet_->fleet_price_epochs().size();
        std::size_t epochs = 0;
        for (std::size_t i = 0; i < num_shards(); ++i)
            if (shard_emulator(i).economy_enabled())
                epochs += shard_emulator(i).price_epochs().size();
        return epochs;
    }
    [[nodiscard]] std::size_t admission_queued() const {
        std::size_t queued = 0;
        for (std::size_t i = 0; i < num_shards(); ++i)
            queued += shard_emulator(i).admission_queue_total();
        return queued;
    }
    void export_traces(const std::string& dir) const {
        for (std::size_t i = 0; i < num_shards(); ++i) {
            std::ofstream out(dir + "/shard_" + std::to_string(i) + ".json");
            shard_emulator(i).spans().export_trace_json(out, static_cast<std::uint32_t>(i));
            if (!out) throw std::runtime_error("cannot write the trace of shard " +
                                               std::to_string(i) + " into " + dir);
        }
    }

private:
    std::unique_ptr<vod::emulator> emulator_;
    std::unique_ptr<engine::fleet> fleet_;
    std::size_t num_slots_ = 0;
    clock_type::time_point last_step_start_{};
};

// ---------------------------------------------------------------------------
// Horizons
// ---------------------------------------------------------------------------

struct usage_sample {
    double sys_s = 0.0;
    long minor_faults = 0;
};

usage_sample usage_now() {
    rusage u{};
    getrusage(RUSAGE_SELF, &u);
    auto secs = [](const timeval& tv) {
        return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return {secs(u.ru_stime), u.ru_minflt};
}

// Per-layer totals of a traced horizon (fleets: summed over shards).
struct layer_record {
    std::vector<std::pair<std::string, double>> values;
    void set(const std::string& name, double v) { values.emplace_back(name, v); }
};

struct horizon {
    std::string mode;  // "warmup" | "untraced" | "traced" | "hook" | "one_worker"
    std::size_t threads = 1;
    double rss_post_construct_mb = 0.0;
    std::vector<double> setup_samples;  // seconds of each set-up sample
    bool complete = false;
    std::vector<slot_sample> slots;
    usage_sample usage_delta;
    // Behaviour (complete horizons only).
    double welfare = 0.0;
    double miss_rate = 0.0;
    double inter_isp_fraction = 0.0;
    double transit_cost = 0.0;
    std::uint64_t admitted = 0;
    std::uint64_t abandoned = 0;
    std::uint64_t queued = 0;
    // Engine view (traced horizons): per-slot busy seconds of each shard.
    std::vector<std::vector<double>> shard_busy;  // [slot][shard]
    std::vector<double> parallel_s;               // per slot (traced)
    std::vector<double> hook_s;                   // per slot (fleets, sink set)
    std::size_t saturated_pairs_peak = 0;
    layer_record layers;
};

constexpr std::size_t full_horizon = SIZE_MAX;

struct horizon_plan {
    std::string mode;
    std::size_t threads = 1;
    bool traced = false;
    // A sink that emits at slot 0 only: the fleet times step() for its hooks
    // and its telemetry emitter does no work after slot 0.
    bool hook = false;
    std::size_t max_slots = full_horizon;
    std::size_t setup_before = 0;  // set-up samples before the construction
    std::size_t setup_every = 0;   // slots between set-up samples; 0 = none
    std::string trace_dir;         // traced only; "" = no export
};

horizon run_horizon(const workload_def& w, std::uint64_t seed, const horizon_plan& plan) {
    horizon h;
    h.mode = plan.mode;
    h.threads = plan.threads;

    std::ostringstream jsonl;
    obs::jsonl_sink sink(jsonl);
    obs::telemetry_options telemetry;
    if (plan.traced) {
        telemetry.record_spans = true;
        telemetry.sink = &sink;
    } else if (plan.hook) {
        telemetry.sink = &sink;
        telemetry.every_slots = SIZE_MAX;
    }

    const auto setup_sample = [&] {
        const auto t0 = clock_type::now();
        const system_under_test sample(w, seed, plan.threads, {});
        h.setup_samples.push_back(seconds_since(t0));
    };
    for (std::size_t i = 0; i < plan.setup_before; ++i) setup_sample();

    system_under_test sut(w, seed, plan.threads, telemetry);
    h.rss_post_construct_mb = metrics::current_rss_mb();

    const std::size_t n = std::min(plan.max_slots, sut.num_slots());
    const std::size_t shards = sut.num_shards();
    std::vector<double> busy_before(shards, 0.0);

    // The bench hook is registered last, so it runs after the coupling step
    // and the telemetry emitter: now − (step start + step_seconds) is the
    // serial hook time of the slot. In a hook horizon the emitter works at
    // slot 0 only, so from slot 1 on that time is the coupling step's.
    if ((plan.traced || plan.hook) && sut.fleet() != nullptr) {
        engine::fleet* f = sut.fleet();
        f->add_slot_hook([&](const engine::slot_hook_context& ctx) {
            const double since_start = seconds_since(sut.last_step_start());
            h.hook_s.push_back(std::max(0.0, since_start - ctx.step_seconds));
            h.parallel_s.push_back(ctx.step_seconds);
            if (f->coupling_enabled())
                h.saturated_pairs_peak =
                    std::max(h.saturated_pairs_peak, f->link_stats().saturated_pairs);
        });
    }

    const usage_sample u0 = usage_now();
    for (std::size_t k = 0; k < n; ++k) {
        slot_sample s = sut.step();
        if (plan.traced) {
            std::vector<double> busy(shards);
            for (std::size_t i = 0; i < shards; ++i) {
                const double total = sut.shard_busy(i);
                busy[i] = total - busy_before[i];
                busy_before[i] = total;
            }
            h.shard_busy.push_back(std::move(busy));
            if (sut.fleet() == nullptr) h.parallel_s.push_back(s.step_s);
        }
        h.slots.push_back(s);
        if (plan.setup_every != 0 && k % plan.setup_every == 0) setup_sample();
    }
    const usage_sample u1 = usage_now();
    h.usage_delta = {u1.sys_s - u0.sys_s, u1.minor_faults - u0.minor_faults};
    h.complete = n == sut.num_slots();

    obs::counter_registry counters = sut.counters();
    h.admitted = counters.counter_named("admission.admitted");
    h.abandoned = counters.counter_named("admission.abandoned");
    h.queued = sut.admission_queued();
    if (h.complete) {
        h.welfare = sut.total_welfare();
        h.miss_rate = sut.miss_rate();
        h.inter_isp_fraction = sut.inter_isp_fraction();
        h.transit_cost = sut.transit_cost();
    }

    if (plan.traced) {
        layer_record& L = h.layers;
        using obs::phase;
        L.set("vod.build_s", sut.phase_seconds(phase::build));
        L.set("vod.neighbor_refresh_s", sut.phase_seconds(phase::neighbor_refresh));
        L.set("vod.apply_s", sut.phase_seconds(phase::apply));
        L.set("vod.playback_s", sut.phase_seconds(phase::playback));
        L.set("vod.population_s",
              sut.phase_seconds(phase::arrivals) + sut.phase_seconds(phase::departures));
        L.set("vod.shed_s", sut.phase_seconds(phase::shed));
        L.set("core.solve_s", sut.phase_seconds(phase::solve));
        for (std::size_t i = 0; i < counters.size(); ++i) {
            const auto& e = counters.entries()[i];
            L.set("counter." + e.name, e.kind == obs::metric_kind::counter
                                           ? static_cast<double>(counters.counter_at(i))
                                           : counters.gauge_at(i));
        }
        std::uint64_t online_end = h.slots.empty() ? 0 : h.slots.back().online;
        L.set("mem.footprint_bytes", static_cast<double>(sut.footprint_bytes()));
        L.set("mem.online_viewers_end", static_cast<double>(online_end));
        L.set("isp.price_epochs", static_cast<double>(sut.price_epochs()));
        if (!plan.trace_dir.empty()) sut.export_traces(plan.trace_dir);
    }
    return h;
}

// ---------------------------------------------------------------------------
// JSON output
// ---------------------------------------------------------------------------

std::string hex(std::uint64_t v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "\"0x%016" PRIx64 "\"", v);
    return buf;
}

std::string num(double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

template <typename T, typename F>
std::string array(const std::vector<T>& xs, F&& fmt) {
    std::string out = "[";
    for (std::size_t i = 0; i < xs.size(); ++i) {
        if (i) out += ",";
        out += fmt(xs[i]);
    }
    return out + "]";
}

std::string horizon_json(const horizon& h) {
    std::uint64_t run_hash = vod::golden_seed;
    for (const auto& s : h.slots) vod::golden_mix(run_hash, s.hash);
    std::string o = "{";
    o += "\"mode\":\"" + h.mode + "\"";
    o += ",\"threads\":" + std::to_string(h.threads);
    o += ",\"complete\":" + std::string(h.complete ? "true" : "false");
    o += ",\"setup_samples\":" + array(h.setup_samples, num);
    o += ",\"rss_post_construct_mb\":" + num(h.rss_post_construct_mb);
    o += ",\"step_s\":" + array(h.slots, [](const slot_sample& s) { return num(s.step_s); });
    o += ",\"online\":" +
         array(h.slots, [](const slot_sample& s) { return std::to_string(s.online); });
    o += ",\"requests\":" +
         array(h.slots, [](const slot_sample& s) { return std::to_string(s.requests); });
    o += ",\"slot_hash\":" + array(h.slots, [](const slot_sample& s) { return hex(s.hash); });
    o += ",\"run_hash\":" + hex(run_hash);
    o += ",\"sys_cpu_s\":" + num(h.usage_delta.sys_s);
    o += ",\"minor_faults\":" + std::to_string(h.usage_delta.minor_faults);
    o += ",\"welfare\":" + num(h.welfare);
    o += ",\"miss_rate\":" + num(h.miss_rate);
    o += ",\"inter_isp_fraction\":" + num(h.inter_isp_fraction);
    o += ",\"transit_cost\":" + num(h.transit_cost);
    o += ",\"admitted\":" + std::to_string(h.admitted);
    o += ",\"abandoned\":" + std::to_string(h.abandoned);
    o += ",\"queued\":" + std::to_string(h.queued);
    if (!h.hook_s.empty()) o += ",\"hook_s\":" + array(h.hook_s, num);
    if (!h.shard_busy.empty()) {
        o += ",\"shard_busy_s\":" + array(h.shard_busy, [](const std::vector<double>& row) {
                 return array(row, num);
             });
        o += ",\"parallel_s\":" + array(h.parallel_s, num);
        o += ",\"saturated_pairs_peak\":" + std::to_string(h.saturated_pairs_peak);
        o += ",\"layers\":{";
        for (std::size_t i = 0; i < h.layers.values.size(); ++i) {
            if (i) o += ",";
            o += "\"" + h.layers.values[i].first + "\":" + num(h.layers.values[i].second);
        }
        o += "}";
    }
    return o + "}";
}

std::string build_json() {
    std::string o = "{";
    o += "\"build_type\":\"" PERFBENCH_BUILD_TYPE "\"";
    o += ",\"cxx_flags\":\"" PERFBENCH_CXX_FLAGS "\"";
    o += ",\"sanitize\":\"" PERFBENCH_SANITIZE "\"";
#if defined(__clang__)
    o += ",\"compiler\":\"clang " __clang_version__ "\"";
#elif defined(__GNUC__)
    o += ",\"compiler\":\"gcc " __VERSION__ "\"";
#else
    o += ",\"compiler\":\"unknown\"";
#endif
#ifdef NDEBUG
    o += ",\"ndebug\":true";
#else
    o += ",\"ndebug\":false";
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    o += ",\"sanitizer_runtime\":true";
#else
    o += ",\"sanitizer_runtime\":false";
#endif
    o += ",\"hardware_concurrency\":" +
         std::to_string(std::thread::hardware_concurrency());
    return o + "}";
}

// ---------------------------------------------------------------------------
// main
// ---------------------------------------------------------------------------

struct options {
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    int trace = 0;
    std::string trace_dir;
};

options parse(int argc, char** argv) {
    options o;
    bool have_seed = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc) throw std::invalid_argument("missing value after " + a);
        const std::string v = argv[++i];
        if (a == "--workload") o.workload = v;
        else if (a == "--seed") o.seed = std::stoull(v), have_seed = true;
        else if (a == "--seconds") o.seconds = std::stod(v);
        else if (a == "--trace") o.trace = std::stoi(v);
        else if (a == "--trace-dir") o.trace_dir = v;
        else throw std::invalid_argument("unknown argument " + a);
    }
    if (o.workload.empty() || !have_seed || !(o.seconds > 0.0) ||
        (o.trace != 0 && o.trace != 1))
        throw std::invalid_argument(
            "usage: perfbench_driver --workload NAME --seed N --seconds S "
            "--trace 0|1 [--trace-dir DIR]");
    return o;
}

}  // namespace

int main(int argc, char** argv) try {
    if (argc == 2 && std::string(argv[1]) == "--build-info") {
        std::printf("%s\n", build_json().c_str());
        return 0;
    }
    const options opt = parse(argc, argv);
    const workload_def* w = nullptr;
    for (const auto& candidate : workloads)
        if (opt.workload == candidate.name) w = &candidate;
    if (w == nullptr) throw std::invalid_argument("unknown workload " + opt.workload);

    const auto count_for = [&](double horizon_s) {
        return std::max<std::size_t>(
            1, static_cast<std::size_t>(std::lround(opt.seconds / horizon_s)));
    };
    std::vector<horizon> horizons;
    horizons.push_back(run_horizon(
        *w, opt.seed,
        {.mode = "warmup", .threads = w->threads, .max_slots = w->warmup_slots}));
    if (opt.trace == 0) {
        const horizon_plan timed{.mode = "untraced", .threads = w->threads,
                                 .setup_before = w->setup_before,
                                 .setup_every = w->setup_every_slots};
        for (std::size_t i = count_for(w->nominal_horizon_s); i > 0; --i)
            horizons.push_back(run_horizon(*w, opt.seed, timed));
    } else {
        // Untraced/traced pairs in ABBA order, at least one of each order;
        // only the first traced horizon exports its spans.
        const horizon_plan untraced{.mode = "untraced", .threads = w->threads};
        const std::size_t pairs =
            std::max<std::size_t>(2, count_for(2.0 * w->nominal_horizon_s));
        for (std::size_t pair = 0; pair < pairs; ++pair) {
            const horizon_plan traced{.mode = "traced", .threads = w->threads, .traced = true,
                                      .trace_dir = pair == 0 ? opt.trace_dir : ""};
            const bool traced_first = pair % 2 == 1;
            horizons.push_back(run_horizon(*w, opt.seed, traced_first ? traced : untraced));
            horizons.push_back(run_horizon(*w, opt.seed, traced_first ? untraced : traced));
        }
        if (w->fleet) {
            horizons.push_back(run_horizon(
                *w, opt.seed, {.mode = "hook", .threads = w->threads, .hook = true}));
            horizons.push_back(run_horizon(*w, opt.seed,
                                           {.mode = "one_worker", .threads = 1, .traced = true,
                                            .max_slots = w->one_worker_slots}));
        }
    }

    std::string o = "{";
    o += "\"workload\":\"" + std::string(w->name) + "\"";
    o += ",\"seed\":" + std::to_string(opt.seed);
    o += ",\"trace\":" + std::to_string(opt.trace);
    o += ",\"peak_rss_mb\":" + num(metrics::peak_rss_mb());
    const vod::golden_run_hashes* golden =
        w->fleet ? nullptr : vod::golden_for("metro_5k");
    o += ",\"golden_metrics\":" + (golden && opt.seed == 42 && vod::golden_toolchain
                                       ? hex(golden->metrics)
                                       : std::string("null"));
    o += ",\"horizons\":" + array(horizons, horizon_json);
    o += "}";
    std::printf("%s\n", o.c_str());
    return 0;
} catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 2;
}
