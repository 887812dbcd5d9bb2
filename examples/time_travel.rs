//! Time travel: querying current *and historic* data (§2.1, §4.3).
//!
//! L-Store "supports querying and retaining the current and historic data":
//! every update appends a version; merges consolidate base pages without
//! losing history (first-update snapshots preserve original values); and
//! historic compression re-organizes old versions for efficient as-of reads.
//!
//! Run with: `cargo run --example time_travel`

use lstore::{Database, DbConfig, ReadRequest, TableConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Deterministic config: we drive merges manually to show each stage.
    let db = Database::new(DbConfig::deterministic());
    let sensors = db.create_table(
        "sensors",
        &["temperature", "humidity"],
        TableConfig::small(),
    )?;

    // Day 0: install sensors.
    for s in 0..500u64 {
        sensors.insert_auto(s, &[20, 50])?;
    }
    let day0 = sensors.now();

    // Day 1: a heat wave on half the sensors.
    for s in 0..250u64 {
        sensors.update_auto(s, &[(0, 35)])?;
    }
    let day1 = sensors.now();

    // Day 2: it cools down; humidity rises everywhere.
    for s in 0..500u64 {
        sensors.update_auto(s, &[(0, 18), (1, 80)])?;
    }
    let day2 = sensors.now();

    // Query the same key at three points in time: one request per
    // snapshot, both value columns.
    let sensor10 = |ts| ReadRequest::as_of(10, ts).with_columns(vec![0, 1]);
    for (label, ts) in [("day0", day0), ("day1", day1), ("day2", day2)] {
        let reading = sensors.read_one(&sensor10(ts))?.values;
        println!("sensor 10 @{label} = {reading:?}");
    }
    assert_eq!(
        sensors.read_one(&sensor10(day0))?.values,
        Some(vec![20, 50])
    );
    assert_eq!(
        sensors.read_one(&sensor10(day1))?.values,
        Some(vec![35, 50])
    );
    assert_eq!(
        sensors.read_one(&sensor10(day2))?.values,
        Some(vec![18, 80])
    );

    // Aggregate time travel: average temperature per day.
    for (label, ts) in [("day0", day0), ("day1", day1), ("day2", day2)] {
        let sum = sensors.sum_as_of(0, ts);
        println!("avg temperature @{label} = {:.1}", sum as f64 / 500.0);
    }
    assert_eq!(sensors.sum_as_of(0, day0), 500 * 20);
    assert_eq!(sensors.sum_as_of(0, day1), 250 * 35 + 250 * 20);
    assert_eq!(sensors.sum_as_of(0, day2), 500 * 18);

    // Now merge: base pages advance in time, yet history survives via the
    // lineage (snapshot records keep the original values reachable).
    sensors.merge_all();
    assert_eq!(
        sensors.read_one(&sensor10(day0))?.values,
        Some(vec![20, 50])
    );
    assert_eq!(sensors.sum_as_of(0, day1), 250 * 35 + 250 * 20);
    println!("history intact after merge (TPS lineage + snapshot records)");

    // Compress historic versions (everything older than "now" is outside
    // any active snapshot here) and query again: reads now cross into the
    // re-organized, delta-compressed historic store.
    let mut compressed = 0;
    for r in 0..sensors.range_count() {
        compressed += sensors.compress_historic(r as u32, sensors.now());
    }
    println!("historic compression re-organized {compressed} tail records");
    assert_eq!(
        sensors.read_one(&sensor10(day0))?.values,
        Some(vec![20, 50])
    );
    assert_eq!(
        sensors.read_one(&sensor10(day1))?.values,
        Some(vec![35, 50])
    );
    let latest = sensors.read_one(&ReadRequest::latest(10))?;
    assert_eq!(latest.values, Some(vec![18, 80]));
    assert_eq!(sensors.sum_as_of(0, day0), 500 * 20);
    println!("time travel works across live tail, merged pages, and historic store");

    // Deletes are versions too: the record disappears going forward but
    // remains queryable in the past.
    sensors.delete_auto(10)?;
    let after_delete = sensors.now();
    let temperature = |ts| ReadRequest::as_of(10, ts).with_columns(vec![0]);
    assert_eq!(sensors.read_one(&temperature(after_delete))?.values, None);
    assert_eq!(sensors.read_one(&temperature(day1))?.values, Some(vec![35]));
    println!("deleted sensor 10 still visible at day1, gone at now — ok");
    Ok(())
}
