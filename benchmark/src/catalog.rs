//! The benchmark's vocabulary: workloads, end-to-end metrics and per-layer
//! metrics, by name. `BENCHMARK.json` at the repository root lists the
//! same names; `tests::catalog_matches_benchmark_json` keeps the two in
//! step, and [`crate::report::result_line`] refuses to print a result
//! that misses a name or carries an extra one.

/// Direction in which a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One named metric. `bound` is the share of the parent's median by which
/// an end-to-end metric may worsen before a change counts as a regression
/// (per-layer metrics carry none).
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

/// A workload and the one-line reason it exists.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadInfo {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadInfo; 4] = [
    WorkloadInfo {
        name: "sw_scan",
        why: "paper's DNA case study: client-key CM-SW on 2 shards; cm_core sweep, index generation and cm_bfv do the work, the front-end little",
    },
    WorkloadInfo {
        name: "plain_rtt",
        why: "plain backend, near-zero compute: the operation is client framing, cm_reactor, the pump, registry checkout, AES seal and reply",
    },
    WorkloadInfo {
        name: "ifp_scan",
        why: "paper's in-flash path: cm_ssd CmIfpServer, transposition and cm_flash bit-serial adds dominate host time; simulated device time is exact",
    },
    WorkloadInfo {
        name: "tenant_churn",
        why: "encrypted-database search with writes beside reads: 8 uploaded tenants over a 4.5-database budget, demotion, promotion, evict and re-upload",
    },
];

use Better::{Higher, Lower};

/// What a user of the serving stack sees. Every workload reports all of
/// them; the timing ones are quiet deciles over rounds and set-ups, and the
/// bounds are the measured noise of this machine class (see `README.md`,
/// "The quiet decile" and "Bounds").
pub const END_TO_END: [Metric; 6] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("qps", "ops/s", Higher, 0.25),
    e2e("latency_p50_ms", "ms", Lower, 0.25),
    e2e("peak_rss_mb", "MiB", Lower, 0.25),
    e2e("wire_bytes_per_op", "B", Lower, 0.005),
    e2e("db_expansion", "ratio", Lower, 0.005),
];

/// One row per layer boundary the harness can time or count from outside.
pub const PER_LAYER: [Metric; 57] = [
    // cm_hemath
    layer("hemath.add_assign_gbps", "GB/s", Higher),
    layer("hemath.memcpy_gbps", "GB/s", Higher),
    layer("hemath.ntt_forward_us", "us", Lower),
    // cm_bfv
    layer("bfv.encrypt_us", "us", Lower),
    layer("bfv.decrypt_us", "us", Lower),
    // cm_core matchers
    layer("core.prepare_query_ms", "ms", Lower),
    layer("core.sweep_ms", "ms", Lower),
    layer("core.sweep_into_ms", "ms", Lower),
    layer("core.sweep_ns_per_add_p16", "ns", Lower),
    layer("core.sweep_ns_per_add_p64", "ns", Lower),
    layer("core.sweep_gbps", "GB/s", Higher),
    layer("core.index_gen_ms", "ms", Lower),
    layer("core.encrypt_db_ms", "ms", Lower),
    layer("core.hom_adds_per_op", "count", Lower),
    // cm_core::exec
    layer("exec.submit_wait_us", "us", Lower),
    layer("exec.queue_wait_us_p50", "us", Lower),
    // cm_server wire + client
    layer("wire.encode_request_us", "us", Lower),
    layer("wire.decode_request_us", "us", Lower),
    layer("wire.encode_response_us", "us", Lower),
    layer("wire.decode_response_us", "us", Lower),
    layer("wire.frame_reassemble_us", "us", Lower),
    layer("client.encrypt_ms", "ms", Lower),
    layer("client.call_ms_p50", "ms", Lower),
    layer("client.open_us", "us", Lower),
    // cm_server serving
    layer("registry.run_query_ms_p50", "ms", Lower),
    layer("server.request_latency_us_p50", "us", Lower),
    layer("server.queue_wait_us_p50", "us", Lower),
    layer("server.serve_time_us_p50", "us", Lower),
    layer("shard.imbalance", "ratio", Lower),
    layer("net.unaccounted_ms_p50", "ms", Lower),
    // cm_reactor
    layer("reactor.ping_rtt_us_p50", "us", Lower),
    layer("reactor.bytes_in_per_op", "B", Lower),
    layer("reactor.bytes_out_per_op", "B", Lower),
    // cm_server lifecycle
    layer("registry.upload_ms_p50", "ms", Lower),
    layer("registry.evict_ms_p50", "ms", Lower),
    layer("churn.match_hot_ms_p50", "ms", Lower),
    layer("churn.match_cold_ms_p50", "ms", Lower),
    layer("churn.cold_share", "ratio", Lower),
    layer("registry.demotions", "1/kop", Lower),
    layer("registry.rematerializations", "1/kop", Lower),
    layer("registry.cold_hits", "1/kop", Higher),
    layer("registry.flash_wear_pages", "1/kop", Lower),
    // cm_ssd / cm_flash / cm_aes
    layer("ssd.cm_search_ms", "ms", Lower),
    layer("ssd.host_us_per_bop_add", "us", Lower),
    layer("flash.bop_adds_per_op", "count", Lower),
    layer("ssd.sim_device_us", "us", Lower),
    layer("ssd.sim_energy_uj", "uJ", Lower),
    layer("ssd.cm_write_ms", "ms", Lower),
    layer("ifp.index_gen_ms", "ms", Lower),
    layer("cold.put_ms_per_mib", "ms/MiB", Lower),
    layer("cold.get_ms_per_mib", "ms/MiB", Lower),
    layer("aes.seal_us", "us", Lower),
    // process
    layer("proc.cpu_ms_per_op", "ms", Lower),
    layer("proc.threads_peak", "count", Lower),
    layer("proc.latency_p95_ms", "ms", Lower),
    layer("trace.overhead_pct", "%", Lower),
    layer("trace.unattributed_ms_p50", "ms", Lower),
];

/// The metric called `name`, end-to-end or per-layer.
pub fn metric(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().chain(&PER_LAYER).find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn name_ok(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn names_and_units_fit_the_contract_and_are_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for name in WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().chain(&PER_LAYER).map(|m| m.name))
        {
            assert!(name_ok(name), "bad name {name:?}");
            assert!(seen.insert(name), "duplicate name {name:?}");
        }
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(unit_ok(m.unit), "bad unit {:?} on {}", m.unit, m.name);
        }
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = metric("setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    /// Every workload and metric in `BENCHMARK.json` is one this binary
    /// emits, and the other way round, with the same unit, direction and
    /// bound.
    #[test]
    fn catalog_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");

        let listed = |key: &str| -> Vec<Vec<(String, Json)>> {
            doc.get(key)
                .and_then(Json::as_arr)
                .unwrap_or_else(|| panic!("{key} is an array"))
                .iter()
                .map(|entry| entry.as_obj().expect("entries are objects").to_vec())
                .collect()
        };
        let field = |entry: &[(String, Json)], key: &str| -> Json {
            entry
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v.clone())
                .unwrap_or_else(|| panic!("entry lacks {key}"))
        };

        let workloads = listed("workloads");
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (entry, ours) in workloads.iter().zip(&WORKLOADS) {
            assert_eq!(entry.len(), 2, "workload entries have exactly name and why");
            assert_eq!(field(entry, "name"), Json::str(ours.name));
            assert_eq!(field(entry, "why"), Json::str(ours.why));
        }
        for (key, ours, keys) in [
            ("end_to_end", &END_TO_END[..], 4),
            ("per_layer", &PER_LAYER[..], 3),
        ] {
            let entries = listed(key);
            assert_eq!(entries.len(), ours.len(), "{key} length");
            for (entry, m) in entries.iter().zip(ours) {
                assert_eq!(entry.len(), keys, "{key} entry {} key count", m.name);
                assert_eq!(field(entry, "name"), Json::str(m.name));
                assert_eq!(field(entry, "unit"), Json::str(m.unit), "{}", m.name);
                assert_eq!(
                    field(entry, "better"),
                    Json::str(m.better.as_str()),
                    "{}",
                    m.name
                );
                if keys == 4 {
                    assert_eq!(field(entry, "bound"), Json::Num(m.bound), "{}", m.name);
                }
            }
        }
        let command = doc.get("command").and_then(Json::as_arr).expect("command");
        assert!(command.contains(&Json::str("benchmark/Cargo.toml")));
        assert_eq!(
            doc.get("paths"),
            Some(&Json::Arr(vec![Json::str("benchmark")]))
        );
    }
}
