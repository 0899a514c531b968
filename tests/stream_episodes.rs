//! A continuous monitor names every episode it sees.
//!
//! Set up as the `stream_monitor` benchmark is: a `SensorFeed` of 100
//! sensors × 10 readings per tick feeds a 24-chunk window, compacted
//! past its 4 most recent chunks, over `STDDEV(temp) GROUP BY hour`.
//! Dropout and Drift episodes alternate, here on fixed sensors. Each tick
//! pushes a chunk, explains the window with `ContinuousSession::explain`,
//! and marks the flagged and hold-out hours. Every episode whose hours
//! have left the window must have been named, its sensor in a top
//! predicate, by an explanation made while they were in it.

use scorpion_agg::aggregate_by_name;
use scorpion_data::stream::{
    feed_schema, sensor_id, Episode, EpisodeKind, FeedConfig, SensorFeed, FEED_AGG_ATTR,
    FEED_GROUP_ATTR,
};
use scorpion_stream::{
    ContinuousConfig, ContinuousSession, DetectorConfig, SlidingWindow, StreamConfig,
};

const SENSORS: usize = 100;
const READINGS_PER_TICK: usize = 10;
const WINDOW_CHUNKS: usize = 24;
const KEEP_RECENT: usize = 4;
const FIRST_EPISODE: usize = 30;
const EPISODE_EVERY: usize = 20;
const EPISODE_TICKS: usize = 6;
/// The sensor of each episode, in order; Dropout first, then Drift.
const EPISODE_SENSORS: [usize; 4] = [7, 42, 63, 18];
/// The readings' noise seed the benchmark uses.
const FEED_SEED: u64 = 1;

#[test]
fn every_episode_is_named_while_its_hours_are_in_the_window() {
    let episodes: Vec<Episode> = (EPISODE_SENSORS.iter().enumerate())
        .map(|(k, &sensor)| Episode {
            sensor,
            start: FIRST_EPISODE + k * EPISODE_EVERY,
            duration: EPISODE_TICKS,
            kind: if k % 2 == 0 { EpisodeKind::Dropout } else { EpisodeKind::Drift },
        })
        .collect();
    let mut feed = SensorFeed::new(FeedConfig {
        n_sensors: SENSORS,
        readings_per_tick: READINGS_PER_TICK,
        episodes: episodes.clone(),
        seed: FEED_SEED,
    });
    let cfg = StreamConfig::new(feed_schema(), FEED_GROUP_ATTR, FEED_AGG_ATTR, WINDOW_CHUNKS)
        .and_then(|c| c.with_compaction(KEEP_RECENT))
        .unwrap();
    let mut window = SlidingWindow::new(cfg, aggregate_by_name("stddev").unwrap());
    for _ in 0..WINDOW_CHUNKS {
        window.push_chunk(feed.next_chunk().rows).unwrap();
    }
    let session = ContinuousSession::new(ContinuousConfig {
        detector: DetectorConfig { min_groups: 12, min_scale: 0.05, ..DetectorConfig::default() },
        ..ContinuousConfig::default()
    });

    // `(tick, top predicate)` of every explanation, until the last
    // episode's hours have left the window.
    let gone = |e: &Episode| e.start + e.duration + WINDOW_CHUNKS;
    let end = episodes.iter().map(gone).max().unwrap();
    let mut named: Vec<(usize, String)> = Vec::new();
    while feed.tick() < end {
        let chunk = feed.next_chunk();
        let tick = chunk.tick;
        window.push_chunk(chunk.rows).unwrap();
        if let Some(ex) = session.explain(&window).unwrap() {
            named.push((tick, ex.explanation.best().predicate.display(&ex.table)));
            let keys = ex.detection.outliers.iter().map(|(k, _)| k.as_str());
            window.mark_flagged(keys.chain(ex.detection.holdouts.iter().map(String::as_str)));
        }
    }

    for e in &episodes {
        let sensor = format!("'{}'", sensor_id(e.sensor));
        let hit = named.iter().any(|(t, p)| (e.start..gone(e)).contains(t) && p.contains(&sensor));
        assert!(hit, "{:?} episode on {sensor} at tick {} never named: {named:?}", e.kind, e.start);
    }
}
