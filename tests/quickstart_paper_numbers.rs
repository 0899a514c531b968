//! End-to-end check of the paper's running example (§2–§3): Tables 1–2,
//! the hand-computed influences, and the final explanation.

use scorpion::prelude::*;

fn sensors() -> Table {
    let schema = Schema::new(vec![
        Field::disc("time"),
        Field::disc("sensorid"),
        Field::cont("voltage"),
        Field::cont("humidity"),
        Field::cont("temp"),
    ])
    .unwrap();
    let rows: [(&str, &str, f64, f64, f64); 9] = [
        ("11AM", "1", 2.64, 0.4, 34.0),
        ("11AM", "2", 2.65, 0.5, 35.0),
        ("11AM", "3", 2.63, 0.4, 35.0),
        ("12PM", "1", 2.70, 0.3, 35.0),
        ("12PM", "2", 2.70, 0.5, 35.0),
        ("12PM", "3", 2.30, 0.4, 100.0),
        ("1PM", "1", 2.70, 0.3, 35.0),
        ("1PM", "2", 2.70, 0.5, 35.0),
        ("1PM", "3", 2.30, 0.5, 80.0),
    ];
    let mut b = TableBuilder::new(schema);
    for (t, s, v, h, temp) in rows {
        b.push_row(vec![t.into(), s.into(), v.into(), h.into(), temp.into()]).unwrap();
    }
    b.build()
}

#[test]
fn table2_aggregates() {
    let t = sensors();
    let g = group_by(&t, &[0]).unwrap();
    let avgs = aggregate_groups(&t, &g, 4, |v| v.iter().sum::<f64>() / v.len() as f64).unwrap();
    assert!((avgs[0] - 34.6667).abs() < 1e-3); // α1
    assert!((avgs[1] - 56.6667).abs() < 1e-3); // α2
    assert!((avgs[2] - 50.0).abs() < 1e-9); // α3
}

#[test]
fn section32_tuple_influences() {
    // §3.2: removing T4 from g_α2 yields inf = (56.6 − 67.5)/1 = −10.8;
    // removing T6 yields +21.6.
    let t = sensors();
    let g = group_by(&t, &[0]).unwrap();
    let scorer = Scorer::new(
        &t,
        &Avg,
        4,
        vec![GroupSpec { rows: g.rows(1).to_vec(), error: 1.0 }],
        vec![],
        InfluenceParams { lambda: 1.0, c: 1.0 },
    )
    .unwrap();
    let infs = scorer.outlier_tuple_influences(0);
    assert!((infs[0] + 10.8333).abs() < 1e-3, "T4: {}", infs[0]);
    assert!((infs[1] + 10.8333).abs() < 1e-3, "T5: {}", infs[1]);
    assert!((infs[2] - 21.6667).abs() < 1e-3, "T6: {}", infs[2]);
}

#[test]
fn explanation_targets_sensor3_low_voltage() {
    let t = sensors();
    // One session across the c sweep: partitioning runs once.
    let session = ScorpionSession::new(
        Scorpion::on(t.clone())
            .sql("SELECT avg(temp), time FROM sensors GROUP BY time")
            .unwrap()
            .outlier(1, 1.0)
            .outlier(2, 1.0)
            .holdout(0)
            .build()
            .unwrap(),
    )
    .unwrap();
    for c in [0.0, 0.5, 1.0] {
        let ex = session.run_with_c(c).unwrap();
        let best = &ex.best().predicate;
        // The anomalous readings are rows 5 (T6) and 8 (T9); a correct
        // explanation must select them and spare the hold-out's normal
        // rows 0–2 of sensors 1 and 2.
        let all: Vec<u32> = (0..9).collect();
        let sel = best.select(&t, &all).unwrap();
        assert!(sel.contains(&5), "c={c}: T6 missing from {sel:?}");
        assert!(sel.contains(&8), "c={c}: T9 missing from {sel:?}");
        assert!(!sel.contains(&0) && !sel.contains(&1), "c={c}: hold-out rows hit");
    }
}

#[test]
fn error_vector_too_low_prefers_cool_readings() {
    // §3.2: with v = <−1> the cool readings become the influential ones.
    let t = sensors();
    let req = Scorpion::on(t.clone())
        .group_by(&[0], std::sync::Arc::new(Avg), 4)
        .unwrap()
        .outlier(1, -1.0)
        .params(1.0, 1.0)
        .build()
        .unwrap();
    let ex = req.explain().unwrap();
    let sel = ex.best().predicate.select(&t, &[3, 4, 5]).unwrap();
    // T6 (row 5, the 100° reading) must NOT be selected: deleting it
    // lowers the average further.
    assert!(!sel.contains(&5), "100° reading selected: {sel:?}");
    assert!(!sel.is_empty());
}
