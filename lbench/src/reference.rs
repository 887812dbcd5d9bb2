//! The reference cell: `oltp_update`'s traffic on the paper's *In-place
//! Update + History* baseline, measured in the same process. It is a
//! hardware control (it moves with the box, not with the engine) and the
//! yardstick of the paper's Figure 7.

use lstore_baselines::engine::seed as iuh_value;
use lstore_baselines::{Engine, IuhEngine};

use crate::bench::{pick_keys, Ctx, Phases};
use crate::gen::{apply_update, plan_update, Row, SplitMix64, COLS};
use crate::stats::{OpLog, Outcome, Rate};

/// Share of a workload window the reference run lasts: 5 s beside 10 s.
const WINDOW_SHARE: f64 = 0.5;

/// Closed loop of short transactions on the baseline, writing keys
/// ≡ `id` (mod 2). The baseline's interface returns no read values, so the
/// writes are computed from the driver's copy alone.
fn iuh_loop(engine: &IuhEngine, ctx: &Ctx, phases: &Phases, id: u64, own: &mut [Row]) -> OpLog {
    let mut rng = SplitMix64::stream(ctx.seed, 400 + id);
    let mut log = OpLog::new(phases.window, (ctx.seconds * 200_000.0) as usize);
    let owned = own.len() as u64;
    let end = phases.window.end_ns();
    let mut now = ctx.clock.now_ns();
    while now < end {
        let (written, reads) = pick_keys(&mut rng, owned, 2, id, ctx.sizes.rows);
        let updates = written.map(|i| plan_update(&mut rng, &own[i]));
        let writes = [
            (reads[0], updates[0].to_vec()),
            (reads[1], updates[1].to_vec()),
        ];
        let committed = engine.update_transaction(&reads, &writes);
        let done = ctx.clock.now_ns();
        if committed {
            for (i, update) in written.into_iter().zip(&updates) {
                apply_update(&mut own[i], update);
            }
            log.finish(Outcome::Done, now, done);
        } else {
            log.finish(Outcome::Failed, now, done);
        }
        now = done;
    }
    log
}

/// Median-slice transactions per second of the baseline, and whether its
/// column sums agree with the driver's copy afterwards.
pub fn iuh_txn_per_s(ctx: &Ctx) -> (f64, bool) {
    let engine = IuhEngine::new();
    engine.populate(ctx.sizes.rows, COLS);
    let mut halves: Vec<Vec<Row>> = (0..2u64)
        .map(|id| {
            (id..ctx.sizes.rows)
                .step_by(2)
                .map(|k| std::array::from_fn(|c| iuh_value(k, c)))
                .collect()
        })
        .collect();
    let short = Ctx {
        seconds: ctx.seconds * WINDOW_SHARE,
        ..ctx.clone()
    };
    let phases = Phases::starting_now(&short, false);
    let (engine, short, ph) = (&engine, &short, &phases);
    let (a, b) = halves.split_at_mut(1);
    let log = std::thread::scope(|s| {
        let g0 = s.spawn(move || iuh_loop(engine, short, ph, 0, &mut a[0]));
        let g1 = s.spawn(move || iuh_loop(engine, short, ph, 1, &mut b[0]));
        let mut log = g0.join().expect("reference generator 0 panicked");
        log.absorb(&g1.join().expect("reference generator 1 panicked"));
        log
    });
    let agrees = (0..COLS).all(|c| {
        let expected = halves
            .iter()
            .flatten()
            .fold(0u64, |acc, row| acc.wrapping_add(row[c]));
        engine.scan_sum(c, 0, ctx.sizes.rows - 1) == expected
    });
    (
        Rate::of(&log.rates(&phases.untraced_slices())).median,
        agrees && log.failed == 0,
    )
}
