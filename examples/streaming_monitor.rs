//! Continuous monitoring demo: ingest a live sensor feed, maintain a
//! sliding-window `STDDEV(temp) GROUP BY hour` series from per-chunk
//! exact states, auto-flag an injected dropout episode, and
//! re-explain it incrementally as the window slides.
//!
//! ```text
//! cargo run --release --example streaming_monitor
//! ```
//!
//! Expected outcome: around tick 30 the detector flags the hot hours,
//! the first (cold) explanation names the dying sensor `s07`, and every
//! subsequent slide re-explains **warm** — reusing the cached DT
//! partitions because the flagged hours' chunks are untouched.

use scorpion::agg::aggregate_by_name;
use scorpion::data::stream::{
    feed_schema, sensor_id, FeedConfig, SensorFeed, FEED_AGG_ATTR, FEED_GROUP_ATTR,
};
use scorpion::stream::{
    ContinuousConfig, ContinuousSession, DetectorConfig, SlidingWindow, StreamConfig,
};

fn main() {
    let feed_cfg = FeedConfig::demo();
    let bad_sensor = sensor_id(feed_cfg.episodes[0].sensor);
    let episode_start = feed_cfg.episodes[0].start;
    println!(
        "streaming monitor: {} sensors, dropout episode on {bad_sensor} from tick {episode_start}",
        feed_cfg.n_sensors
    );

    let mut feed = SensorFeed::new(feed_cfg);
    let window_cfg = StreamConfig::new(feed_schema(), FEED_GROUP_ATTR, FEED_AGG_ATTR, 24)
        .expect("stream config");
    let mut window = SlidingWindow::new(window_cfg, aggregate_by_name("stddev").unwrap());
    // Half-window warm-up plus a scale floor: a young window's series is
    // too short and too flat for robust statistics to mean anything.
    let session = ContinuousSession::new(ContinuousConfig {
        detector: DetectorConfig { min_groups: 12, min_scale: 0.05, ..Default::default() },
        ..Default::default()
    });

    let mut first_flagged_tick = None;
    let mut explained_correctly = false;
    let mut warm_runs = 0u64;

    for _ in 0..44 {
        let chunk = feed.next_chunk();
        let tick = chunk.tick;
        window.push_chunk(chunk.rows).expect("ingest");

        let Some(ex) = session.explain(&window).expect("explain") else {
            continue;
        };
        if first_flagged_tick.is_none() {
            first_flagged_tick = Some(tick);
            let flagged: Vec<String> =
                ex.outliers.iter().map(|&i| ex.grouping.display_key(&ex.table, i)).collect();
            println!(
                "\ntick {tick}: flagged {} hour(s) [{}] (center {:.2}, scale {:.2})",
                flagged.len(),
                flagged.join(", "),
                ex.detection.center,
                ex.detection.scale,
            );
        }
        if ex.warm {
            warm_runs += 1;
        }
        let best = ex.explanation.best();
        let rendered = best.predicate.display(&ex.table);
        println!(
            "tick {tick}: {} explanation in {:6.1} ms ({} partitions) → {rendered}",
            if ex.warm { "warm" } else { "cold" },
            ex.explanation.diagnostics.runtime.as_secs_f64() * 1e3,
            ex.explanation.diagnostics.partitions,
        );
        if rendered.contains(&bad_sensor) {
            explained_correctly = true;
        }
    }

    let stats = session.stats();
    println!("\nsession: {} cold run(s), {} warm run(s)", stats.cold_runs, stats.warm_runs);

    assert!(first_flagged_tick.is_some(), "the injected episode was never flagged");
    assert!(explained_correctly, "no explanation named the injected cause {bad_sensor}");
    assert!(warm_runs > 0, "window slides with untouched outlier chunks should re-explain warm");
    println!("ok: injected cause {bad_sensor} recovered, warm re-explanation exercised");
}
