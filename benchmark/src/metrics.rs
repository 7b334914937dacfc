//! The metric registry: every name the benchmark prints, with its unit,
//! its better direction and, for end-to-end metrics, its regression
//! bound. `BENCHMARK.json` at the repository root carries the same
//! table; a test keeps the two equal.

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

/// One end-to-end metric.
#[derive(Clone, Copy, Debug)]
pub struct EndToEnd {
    /// Name, as printed.
    pub name: &'static str,
    /// Unit, as printed.
    pub unit: &'static str,
    /// Better direction.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// before a change counts as a regression. The driver accepts the
    /// benchmark only if ten runs, each with a seed of its own, spread by
    /// less than this, so a host-time bound covers the drift of the
    /// recording host (a two-vCPU virtual machine whose speed moves by a
    /// tenth from one half-minute to the next) and a counted metric's
    /// bound covers its variation between seeds. For one seed a counted
    /// metric repeats exactly, and `compare` holds it to equality.
    pub bound: f64,
    /// Counted (simulated or virtual), so identical for equal seeds on
    /// the workloads where it is a primary cell.
    pub exact: bool,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    exact: bool,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        exact,
    }
}

use Better::{Higher, Lower};

/// The fourteen end-to-end metrics. Every workload prints all of them
/// (README.md, "The workload × metric matrix").
pub const END_TO_END: [EndToEnd; 14] = [
    e2e("setup_s", "s", Lower, 0.25, false),
    e2e("events_per_s", "events/s", Higher, 0.25, false),
    e2e("threaded_vs_serial", "ratio", Higher, 0.25, false),
    e2e("requests_per_s", "requests/s", Higher, 0.25, false),
    e2e("acquires_per_s", "acquires/s", Higher, 0.25, false),
    e2e("sim_cycles", "cycles", Lower, 0.10, true),
    e2e("reactive_vs_best_static", "ratio", Lower, 0.10, true),
    e2e("virtual_p50_ns", "ns", Lower, 0.25, true),
    e2e("virtual_p999_ns", "ns", Lower, 0.25, true),
    e2e("acquire_p50_ns", "ns", Lower, 0.25, false),
    e2e("acquire_p99_ns", "ns", Lower, 0.25, false),
    e2e("abort_share", "share", Lower, 0.25, true),
    e2e("bytes_per_object", "B", Lower, 0.15, true),
    e2e("peak_rss_mb", "MiB", Lower, 0.15, false),
];

/// One per-layer metric: `(name, unit, better)`. Per-layer metrics carry
/// no bound; they explain an end-to-end movement, they do not gate.
pub type PerLayer = (&'static str, &'static str, Better);

/// Every per-layer metric, printed by the traced run of every workload
/// (0 where the workload does not touch the layer).
pub const PER_LAYER: [PerLayer; 95] = [
    // sim: spans around Machine::new + spawn, run, stats().
    ("sim.new_s", "s", Lower),
    ("sim.run_s", "s", Lower),
    ("sim.host_ns_per_event", "ns", Lower),
    ("sim.stats_s", "s", Lower),
    // sim: counts read from `Stats` where the span closes.
    ("sim.events", "count", Lower),
    ("sim.dir_requests", "count", Lower),
    ("sim.remote_misses", "count", Lower),
    ("sim.invalidations", "count", Lower),
    ("sim.net_msgs", "count", Lower),
    ("sim.active_msgs", "count", Lower),
    ("sim.limitless_traps", "count", Lower),
    // sim: single-purpose host probes.
    ("sim.probe.work_only_ns_per_event", "ns", Lower),
    ("sim.probe.cached_read_ns_per_event", "ns", Lower),
    ("sim.probe.deep_chain_ns_per_event", "ns", Lower),
    ("sim.probe.pingpong_ns_per_event", "ns", Lower),
    ("sim.probe.faa_ns_per_event", "ns", Lower),
    ("sim.probe.active_msg_ns_per_event", "ns", Lower),
    ("sim.probe.handler_bump_ns", "ns", Lower),
    ("sim.histogram.record_ns", "ns", Lower),
    ("sim.histogram.percentile_ns", "ns", Lower),
    // sim.parallel: counted, from `ClusterReport`.
    ("sim.parallel.epochs", "count", Lower),
    ("sim.parallel.lookahead", "cycles", Higher),
    ("sim.parallel.remote_msgs", "count", Lower),
    ("sim.parallel.critical_path_events", "count", Lower),
    ("sim.parallel.exposed_parallelism", "ratio", Higher),
    // sim.parallel: host time, spans + `ClusterReport`.
    ("sim.parallel.serial_run_s", "s", Lower),
    ("sim.parallel.threaded_run_s", "s", Lower),
    ("sim.parallel.busy_s_sum", "s", Lower),
    ("sim.parallel.critical_path_s", "s", Lower),
    ("sim.parallel.balance", "ratio", Higher),
    ("sim.parallel.sync_overhead_s", "s", Lower),
    ("sim.parallel.modelled_events_per_s", "events/s", Higher),
    ("sim.parallel.model_error", "ratio", Lower),
    // core / protocols: counted, per lock operation.
    ("core.switches", "count", Lower),
    ("core.acquires", "count", Higher),
    ("core.reactive_cycles_per_op", "cycles", Lower),
    ("protocols.tts_cycles_per_op", "cycles", Lower),
    ("protocols.mcs_cycles_per_op", "cycles", Lower),
    ("protocols.recover.rmr_cc_per_passage", "count", Lower),
    ("protocols.recover.rmr_dsm_per_passage", "count", Lower),
    ("protocols.abortable.rmr_cc_per_passage", "count", Lower),
    // apps: one span per component of `sim_apps_mix`.
    ("apps.gamteb.run_s", "s", Lower),
    ("apps.gamteb.events", "count", Lower),
    ("apps.gamteb.cycles", "cycles", Lower),
    ("apps.gamteb_mp.run_s", "s", Lower),
    ("apps.gamteb_mp.events", "count", Lower),
    ("apps.gamteb_mp.cycles", "cycles", Lower),
    ("apps.mp3d.run_s", "s", Lower),
    ("apps.mp3d.events", "count", Lower),
    ("apps.mp3d.cycles", "cycles", Lower),
    ("apps.jacobi.run_s", "s", Lower),
    ("apps.jacobi.events", "count", Lower),
    ("apps.jacobi.cycles", "cycles", Lower),
    ("apps.cgrad.run_s", "s", Lower),
    ("apps.cgrad.events", "count", Lower),
    ("apps.cgrad.cycles", "cycles", Lower),
    ("apps.phase_lock.run_s", "s", Lower),
    ("apps.phase_lock.events", "count", Lower),
    ("apps.phase_lock.cycles", "cycles", Lower),
    ("apps.recover_lock.run_s", "s", Lower),
    ("apps.recover_lock.events", "count", Lower),
    ("apps.recover_lock.cycles", "cycles", Lower),
    // api: probes.
    ("api.policy.decide_ns", "ns", Lower),
    ("api.oracle.check_s", "s", Lower),
    // service.exec: spans + `ServiceReport`.
    ("service.exec.new_s", "s", Lower),
    ("service.exec.run_s", "s", Lower),
    ("service.exec.host_ns_per_request", "ns", Lower),
    ("service.exec.acquires", "count", Higher),
    ("service.exec.aborts", "count", Lower),
    ("service.exec.switches", "count", Lower),
    ("service.exec.switch_denials", "count", Lower),
    ("service.exec.max_active", "count", Lower),
    ("service.exec.end_virtual_ns", "ns", Lower),
    ("service.oracle.check_s", "s", Lower),
    // service: public-call probes.
    ("service.workload.zipf_sample_ns", "ns", Lower),
    ("service.workload.next_arrival_ns", "ns", Lower),
    ("service.limiter.try_acquire_ns", "ns", Lower),
    ("service.arena.cas_ns", "ns", Lower),
    // service.native: spans on acquire / guard drop + service counters.
    ("service.native.new_s", "s", Lower),
    ("service.native.acquire_p999_ns", "ns", Lower),
    ("service.native.release_p50_ns", "ns", Lower),
    ("service.native.inflations", "count", Lower),
    ("service.native.deflations", "count", Lower),
    ("service.native.lock_switches", "count", Lower),
    ("service.native.live_inflated", "count", Lower),
    ("service.native.slab_entries", "count", Lower),
    ("service.native.inflate_churn", "ratio", Lower),
    ("service.native.hot_bytes", "B", Lower),
    // native: 1- and 2-thread probes on the reactive_native locks.
    ("native.tts.uncontended_ns", "ns", Lower),
    ("native.mcs.uncontended_ns", "ns", Lower),
    ("native.reactive.uncontended_ns", "ns", Lower),
    ("native.reactive.overhead_vs_tts", "ratio", Lower),
    ("native.reactive.contended_ns_per_op", "ns", Lower),
    ("native.reactive.switches", "count", Lower),
    // Traced ÷ untraced value of the workload's headline rate.
    ("trace_overhead", "ratio", Lower),
];

/// Look up an end-to-end metric by name.
pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use std::collections::BTreeSet;

    /// The spelling `BENCHMARK.json` uses.
    fn spelled(b: Better) -> &'static str {
        match b {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.0))
            .chain(crate::workloads::NAMES)
            .collect();
        let set: BTreeSet<&str> = names.iter().copied().collect();
        assert_eq!(set.len(), names.len(), "a name is used twice");
        for n in names {
            assert!(n.len() <= 64 && n.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        for unit in END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.1))
        {
            assert!(unit.len() <= 16);
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
    }

    /// `BENCHMARK.json` is hand-written for the driver; this keeps it the
    /// same table as the one the program prints from.
    #[test]
    fn benchmark_json_matches_the_registry() {
        let text = include_str!("../../BENCHMARK.json");
        let doc = Json::parse(text).expect("BENCHMARK.json parses");
        let rows = |key: &str| match doc.get(key) {
            Some(Json::Arr(rows)) => rows.clone(),
            other => panic!("{key}: {other:?}"),
        };
        let field = |row: &Json, k: &str| row.get(k).and_then(Json::as_str).unwrap().to_string();

        let e2e = rows("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (row, m) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(field(row, "name"), m.name);
            assert_eq!(field(row, "unit"), m.unit);
            assert_eq!(field(row, "better"), spelled(m.better));
            assert_eq!(row.get("bound").and_then(Json::as_f64), Some(m.bound));
        }
        let layers = rows("per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (row, m) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(field(row, "name"), m.0);
            assert_eq!(field(row, "unit"), m.1);
            assert_eq!(field(row, "better"), spelled(m.2));
        }
        let workloads: Vec<String> = rows("workloads").iter().map(|r| field(r, "name")).collect();
        assert_eq!(workloads, crate::workloads::NAMES);
        assert_eq!(
            doc.get("paths"),
            Some(&Json::Arr(vec![Json::Str("benchmark".into())]))
        );
    }
}
