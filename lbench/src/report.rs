//! Turning a measured window into named cells: the contract's end-to-end
//! and per-layer metrics (the names `BENCHMARK.json` lists), the
//! diagnostic cells printed beside them, and the JSON records.

use crate::bench::{Ctx, Workload, ROW_BYTES};
use crate::json::Value;
use crate::stats::{Latency, Pct, Rate};
use crate::trace::{totals, Name, NameTotals};
use crate::workloads::Measured;

/// One named number with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Cell {
    pub fn new(name: &str, value: f64, unit: &'static str) -> Cell {
        Cell {
            name: name.to_string(),
            value,
            unit,
        }
    }
}

/// End-to-end metrics every workload reports, as in `BENCHMARK.json`.
pub const END_TO_END: [(&str, &str); 4] = [
    ("ops_per_s", "1/s"),
    ("op_p50_us", "us"),
    ("peer_p50_us", "us"),
    ("setup_s", "s"),
];

/// Per-layer metrics every traced run reports, as in `BENCHMARK.json`.
pub const PER_LAYER: [(&str, &str); 30] = [
    ("index.locate_ns", "ns"),
    ("txn.begin_commit_ns", "ns"),
    ("table.read_ns", "ns"),
    ("table.update_ns", "ns"),
    ("commit.commit_ns", "ns"),
    ("wal.commit_wait_us", "us"),
    ("wal.bytes_per_txn", "B"),
    ("merge.backlog_max", "count"),
    ("merge.records_per_s", "1/s"),
    ("merge.drain_s", "s"),
    ("scan.chain_share", "share"),
    ("scan.ns_per_row", "ns"),
    ("storage.kernel_ns_per_row.plain", "ns"),
    ("storage.kernel_ns_per_row.rle", "ns"),
    ("storage.kernel_ns_per_row.dict", "ns"),
    ("storage.kernel_ns_per_row.for", "ns"),
    ("storage.base_bytes_per_user_byte", "B/B"),
    ("store.fault_us", "us"),
    ("store.hit_rate", "share"),
    ("store.faults_per_scan", "count"),
    ("store.evictions", "count"),
    ("store.writebacks", "count"),
    ("store.file_bytes_per_user_byte", "B/B"),
    ("server.ping_us", "us"),
    ("server.codec_ns", "ns"),
    ("server.batch_size", "count"),
    ("server.shed", "count"),
    ("server.timed_out", "count"),
    ("multi_read.ns_per_key", "ns"),
    ("trace.overhead_share", "share"),
];

/// What the primary operation and generator 1's operation are called in
/// the diagnostic cells.
fn op_names(workload: Workload) -> (&'static str, &'static str) {
    match workload {
        Workload::OltpUpdate | Workload::DurableCommit => ("txn", "txn"),
        Workload::HtapScan => ("scan", "txn"),
        Workload::ColdScan => ("scan", "read"),
        Workload::ServeMultiget => ("req", "req"),
    }
}

/// Median, the conventional named tail and the highest supported
/// percentile of one latency sample, as cells `<op>_p50_<unit>` and so on
/// (scans in milliseconds). Returns the median in nanoseconds.
fn latency_cells(out: &mut Vec<Cell>, op: &str, samples: &mut [u32]) -> f64 {
    let lat = Latency::of(samples);
    let (unit, div, named) = if op == "scan" {
        ("ms", 1e6, Pct::P95)
    } else {
        ("us", 1e3, Pct::P99)
    };
    out.push(Cell::new(
        &format!("{op}_samples"),
        lat.samples as f64,
        "count",
    ));
    out.push(Cell::new(
        &format!("{op}_p50_{unit}"),
        lat.p50_ns / div,
        unit,
    ));
    if let Some(v) = named.of(samples) {
        let name = format!("{op}_{}_{unit}", named.label);
        out.push(Cell::new(&name, f64::from(v) / div, unit));
    }
    if let Some((label, v)) = lat.tail.filter(|(label, _)| *label != named.label) {
        out.push(Cell::new(&format!("{op}_{label}_{unit}"), v / div, unit));
    }
    lat.p50_ns
}

/// The end-to-end metrics of an untraced run (the pooled windows of all
/// its set-ups) and the diagnostic cells printed with them.
pub fn end_to_end(
    ctx: &Ctx,
    workload: Workload,
    m: &mut Measured,
    setup_s: f64,
) -> (Vec<Cell>, Vec<Cell>) {
    let (op, peer_op) = op_names(workload);
    let rate = Rate::of(&m.primary.all_rates());
    let mut cells = Vec::new();
    let (rate_name, scale, unit) = if op == "scan" {
        (
            "scan_mrows_per_s",
            ctx.sizes.scan_rows() as f64 / 1e6,
            "Mrows/s",
        )
    } else if op == "txn" {
        ("txn_per_s", 1.0, "1/s")
    } else {
        ("req_per_s", 1.0, "1/s")
    };
    cells.push(Cell::new(rate_name, rate.median * scale, unit));
    cells.push(Cell::new(&format!("{rate_name}.q1"), rate.q1 * scale, unit));
    cells.push(Cell::new(&format!("{rate_name}.q3"), rate.q3 * scale, unit));
    let op_p50_ns = latency_cells(&mut cells, op, &mut m.primary.latency_ns);
    let peer_p50_ns = if peer_op == op {
        Latency::of(&mut m.peer.latency_ns).p50_ns
    } else {
        let peer_rate = Rate::of(&m.peer.all_rates());
        cells.push(Cell::new(
            &format!("{peer_op}_per_s"),
            peer_rate.median,
            "1/s",
        ));
        latency_cells(&mut cells, peer_op, &mut m.peer.latency_ns)
    };
    if workload == Workload::HtapScan {
        latency_cells(&mut cells, "gen_late", &mut m.lateness_ns);
        latency_cells(&mut cells, "txn_service", &mut m.service_ns);
    }
    let (attempted, failed, wrong) = counts(m);
    cells.push(Cell::new(
        "fail_share",
        (failed + wrong) as f64 / attempted.max(1) as f64,
        "share",
    ));
    let metrics = END_TO_END
        .iter()
        .zip([rate.median, op_p50_ns / 1e3, peer_p50_ns / 1e3, setup_s])
        .map(|((name, unit), value)| Cell::new(name, value, unit))
        .collect();
    (metrics, cells)
}

/// Whole-run counts: operations attempted, failed, and answered wrongly,
/// the end-of-window checks included.
pub fn counts(m: &Measured) -> (u64, u64, u64) {
    let (mut a, mut f, mut w) = (m.primary.attempted, m.primary.failed, m.primary.wrong);
    if !m.pooled {
        a += m.peer.attempted;
        f += m.peer.failed;
        w += m.peer.wrong;
    }
    (a + m.final_checks.0, f, w + m.final_checks.1)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The per-layer metrics of a traced run: window counters (zero where the
/// workload leaves the layer idle), span times, and the probe loops' cells.
/// Also returns the per-span-name table.
pub fn per_layer(
    ctx: &Ctx,
    workload: Workload,
    m: &Measured,
    probes: Vec<Cell>,
) -> (Vec<Cell>, Vec<(Name, NameTotals)>) {
    let buffers: Vec<&[crate::trace::Span]> = m.spans.iter().map(Vec::as_slice).collect();
    let table = totals(&buffers);
    let span = |name: Name| table.iter().find(|(n, _)| *n == name).map(|(_, t)| t);

    let window_s = m.phases.window.slice_ns as f64 * m.phases.window.slices as f64 / 1e9;
    let (b, a) = (&m.before, &m.after);
    let total = |log: &crate::stats::OpLog| log.per_slice.iter().sum::<u64>() as f64;
    let (txns, scans) = match workload {
        Workload::OltpUpdate | Workload::DurableCommit => (total(&m.primary), 0.0),
        Workload::HtapScan => (total(&m.peer), total(&m.primary)),
        Workload::ColdScan => (0.0, total(&m.primary)),
        Workload::ServeMultiget => (0.0, 0.0),
    };
    let user_bytes = (ctx.sizes.rows * ROW_BYTES) as f64;
    let chain = (a.table.chain_reads - b.table.chain_reads) as f64;
    let fast = (a.table.fast_path_reads - b.table.fast_path_reads) as f64;
    let store = |f: fn(&lstore_storage::store::PoolStatsSnapshot) -> u64| match (&b.store, &a.store)
    {
        (Some(b), Some(a)) => (f(a) - f(b)) as f64,
        _ => 0.0,
    };
    let (hits, faults) = (store(|s| s.hits), store(|s| s.faults));
    let server = |f: fn(&lstore_server::ServerStats) -> u64| match (&b.server, &a.server) {
        (Some(b), Some(a)) => (f(a) - f(b)) as f64,
        _ => 0.0,
    };
    let rate_off = Rate::of(&m.primary.rates(&m.phases.untraced_slices())).median;
    let rate_on = Rate::of(&m.primary.rates(&m.phases.traced_slices())).median;

    // Span times of the window, where the workload makes these calls; for
    // the others the probes' cells of the same names stand in below.
    let mut cells: Vec<Cell> = [
        ("table.read_ns", Name::TableRead, 1.0),
        ("table.update_ns", Name::TableUpdate, 1.0),
        ("commit.commit_ns", Name::DbCommit, 1.0),
        (
            "scan.ns_per_row",
            Name::TableSumRidSpan,
            ctx.sizes.scan_rows() as f64,
        ),
    ]
    .into_iter()
    .filter_map(|(cell, name, per)| Some(Cell::new(cell, span(name)?.median_self_ns / per, "ns")))
    .collect();
    cells.extend([
        Cell::new(
            "wal.bytes_per_txn",
            ratio((a.wal_bytes - b.wal_bytes) as f64, txns),
            "B",
        ),
        Cell::new("merge.backlog_max", m.backlog_max as f64, "count"),
        Cell::new(
            "merge.records_per_s",
            (a.table.merged_records - b.table.merged_records) as f64 / window_s,
            "1/s",
        ),
        Cell::new("merge.drain_s", m.drain_s, "s"),
        Cell::new("scan.chain_share", ratio(chain, chain + fast), "share"),
        Cell::new(
            "storage.base_bytes_per_user_byte",
            a.base_bytes as f64 / user_bytes,
            "B/B",
        ),
        Cell::new("store.hit_rate", ratio(hits, hits + faults), "share"),
        Cell::new("store.faults_per_scan", ratio(faults, scans), "count"),
        Cell::new("store.evictions", store(|s| s.evictions), "count"),
        Cell::new("store.writebacks", store(|s| s.writebacks), "count"),
        Cell::new(
            "store.file_bytes_per_user_byte",
            a.store_file_bytes as f64 / user_bytes,
            "B/B",
        ),
        Cell::new(
            "server.batch_size",
            ratio(server(|s| s.batched_requests), server(|s| s.batches)),
            "count",
        ),
        Cell::new("server.shed", server(|s| s.shed), "count"),
        Cell::new("server.timed_out", server(|s| s.timed_out), "count"),
        Cell::new(
            "trace.overhead_share",
            1.0 - ratio(rate_on, rate_off),
            "share",
        ),
    ]);
    cells.extend(probes);
    // In the order BENCHMARK.json lists them; the first cell of a name wins.
    let ordered = PER_LAYER
        .iter()
        .filter_map(|(name, _)| cells.iter().find(|c| c.name == *name).cloned())
        .collect();
    (ordered, table)
}

pub fn print_cells(title: &str, cells: &[Cell]) {
    println!("  {title}");
    for c in cells {
        println!("    {:<36} {:>16.4} {}", c.name, c.value, c.unit);
    }
}

pub fn print_span_table(table: &[(Name, NameTotals)]) {
    println!("  spans (traced slices of the window)");
    println!(
        "    {:<24} {:>10} {:>12} {:>12} {:>12} {:>14}",
        "name", "count", "total_ms", "self_ms", "median_ns", "median_self_ns"
    );
    for (name, t) in table {
        println!(
            "    {:<24} {:>10} {:>12.2} {:>12.2} {:>12.0} {:>14.0}",
            name.as_str(),
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6,
            t.median_ns,
            t.median_self_ns
        );
    }
}

pub fn cells_json(cells: &[Cell]) -> Value {
    Value::Obj(
        cells
            .iter()
            .map(|c| {
                (
                    c.name.clone(),
                    Value::obj([("value", Value::Num(c.value)), ("unit", Value::str(c.unit))]),
                )
            })
            .collect(),
    )
}

/// One finished run of one workload.
#[derive(Debug, Clone)]
pub struct RunResult {
    pub workload: &'static str,
    pub trace: bool,
    pub attempted: u64,
    pub failed: u64,
    pub wrong: u64,
    /// The contract's metrics: end-to-end, or per-layer for a traced run.
    pub metrics: Vec<Cell>,
    /// Diagnostic cells: printed and recorded, never bounded.
    pub cells: Vec<Cell>,
    /// Primary operations per second in each slice of the window.
    pub slices: Vec<f64>,
    pub wall_s: f64,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.wrong == 0
    }

    /// The line the benchmark contract asks for.
    pub fn contract_line(&self) -> String {
        Value::obj([
            ("correct", Value::Bool(self.correct())),
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num((self.failed + self.wrong) as f64)),
            ("metrics", cells_json(&self.metrics)),
        ])
        .to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` and the program must name the same metrics with the
    /// same units, and the same workloads.
    #[test]
    fn benchmark_json_lists_what_lbench_reports() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let spec = Value::parse(&text).unwrap();
        let listed = |key: &str| -> Vec<(String, String)> {
            spec.get(key)
                .unwrap()
                .as_arr()
                .iter()
                .map(|m| {
                    let field =
                        |f: &str| m.get(f).and_then(Value::as_str).unwrap_or("").to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), own(&END_TO_END));
        assert_eq!(listed("per_layer"), own(&PER_LAYER));
        let workloads: Vec<String> = listed("workloads").into_iter().map(|(n, _)| n).collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn latency_cells_name_only_supported_tails() {
        let mut few: Vec<u32> = (1..=150).map(|i| i * 1000).collect();
        let mut cells = Vec::new();
        latency_cells(&mut cells, "txn", &mut few);
        let names: Vec<&str> = cells.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["txn_samples", "txn_p50_us", "txn_p90_us"]);
        assert_eq!(cells[1].value, 75.0);
        let mut many: Vec<u32> = (1..=20_000).collect();
        let mut cells = Vec::new();
        latency_cells(&mut cells, "scan", &mut many);
        let names: Vec<&str> = cells.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "scan_samples",
                "scan_p50_ms",
                "scan_p95_ms",
                "scan_p99.9_ms"
            ]
        );
    }

    #[test]
    fn contract_line_has_exactly_the_four_keys() {
        let r = RunResult {
            workload: "oltp_update",
            trace: false,
            attempted: 10,
            failed: 1,
            wrong: 0,
            metrics: vec![Cell::new("setup_s", 0.812_7, "s")],
            cells: vec![],
            slices: vec![],
            wall_s: 1.0,
        };
        assert_eq!(
            r.contract_line(),
            r#"{"correct": true, "attempted": 10, "failed": 1, "metrics": {"setup_s": {"value": 0.8127, "unit": "s"}}}"#
        );
    }
}
