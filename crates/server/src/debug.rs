//! `GET /debug/*`: the flight recorder over HTTP.
//!
//! Two windows into the bounded event ring `scorpion_obs::telemetry()`
//! keeps while serving:
//!
//! * `/debug/telemetry` — the resident events as JSON rows (or
//!   `?format=csv`, the exact dump `scorpion audit --telemetry-csv`
//!   reads back).
//! * `/debug/slow` — the self-explain pipeline
//!   ([`scorpion_stream::explain_latency`]): the server groups its own
//!   request telemetry into arrival-order slices, flags the slow slices
//!   with the median/MAD detector, and runs the DT engine over the
//!   request dimensions — answering "why were we slow" with an
//!   influence-ranked predicate like
//!   `algorithm in {naive} AND plan_cache in {miss}`.

use crate::http::{error_response, Request, Response};
use crate::json::Json;
use crate::render::{diagnostics_json, explanations_json, num_or_null};
use scorpion_core::{table_csv, TelemetryTable};
use scorpion_stream::{explain_latency, Audit, AuditConfig, AuditOutcome, AUDIT_MIN_EVENTS};
use scorpion_table::Table;

/// The resident telemetry events as a JSON object (or CSV with
/// `?format=csv`).
pub fn handle_telemetry(req: &Request) -> Response {
    let recorder = scorpion_obs::telemetry();
    let table = match recorder.to_table() {
        Ok(t) => t,
        Err(e) => return error_response(500, &format!("telemetry snapshot failed: {e}")),
    };
    match req.query_param("format") {
        Some("csv") => match table_csv(&table) {
            Ok(csv) => Response {
                status: 200,
                headers: Vec::new(),
                content_type: "text/csv; charset=utf-8",
                body: csv.into_bytes(),
            },
            Err(e) => error_response(500, &format!("CSV rendering failed: {e}")),
        },
        None | Some("json") => {
            let body = Json::obj([
                ("enabled", Json::from(recorder.enabled())),
                ("capacity", Json::from(recorder.capacity())),
                ("recorded", Json::from(recorder.recorded())),
                ("events", table_rows_json(&table)),
            ]);
            match body.encode() {
                Ok(text) => Response::json(200, text),
                Err(e) => error_response(500, &format!("response encoding failed: {e}")),
            }
        }
        Some(other) => error_response(400, &format!("unknown format `{other}` (json|csv)")),
    }
}

/// Runs the self-explain pipeline over the live ring. Query parameters:
/// `threshold` (modified z-score, default 3.5) and `top` (predicates
/// returned, default 3).
pub fn handle_slow(req: &Request) -> Response {
    let mut cfg = AuditConfig::default();
    if let Some(raw) = req.query_param("threshold") {
        match raw.parse::<f64>() {
            Ok(z) if z > 0.0 && z.is_finite() => cfg.threshold = z,
            _ => return error_response(400, "bad `threshold`: expected a positive number"),
        }
    }
    let top = match req.query_param("top").map(str::parse::<usize>) {
        None => 3,
        Some(Ok(n)) if n >= 1 => n,
        Some(_) => return error_response(400, "bad `top`: expected a positive integer"),
    };

    let table = match scorpion_obs::telemetry().to_table() {
        Ok(t) => t,
        Err(e) => return error_response(500, &format!("telemetry snapshot failed: {e}")),
    };
    let audit = match explain_latency(&table, &cfg) {
        Ok(a) => a,
        Err(e) => return error_response(500, &format!("self-explain failed: {e}")),
    };
    match audit_json(&audit, top).encode() {
        Ok(text) => Response::json(200, text),
        Err(e) => error_response(500, &format!("response encoding failed: {e}")),
    }
}

/// An [`Audit`] finding as JSON. The `/debug/slow` body and
/// `scorpion audit --json` both render through this, so the live and
/// offline surfaces cannot diverge.
pub fn audit_json(audit: &Audit, top: usize) -> Json {
    let mut fields = vec![
        ("events".to_owned(), Json::from(audit.events)),
        ("threshold".to_owned(), Json::from(audit.threshold)),
    ];
    match &audit.outcome {
        AuditOutcome::TooFewEvents => {
            fields.push(("outcome".to_owned(), Json::from("too_few_events")));
            fields.push(("min_events".to_owned(), Json::from(AUDIT_MIN_EVENTS)));
        }
        AuditOutcome::NoOutliers { center_ms, scale_ms } => {
            fields.push(("outcome".to_owned(), Json::from("no_outliers")));
            fields.push(("center_ms".to_owned(), num_or_null(*center_ms)));
            fields.push(("scale_ms".to_owned(), num_or_null(*scale_ms)));
        }
        AuditOutcome::Explained(report) => {
            fields.push(("outcome".to_owned(), Json::from("explained")));
            fields.push(("center_ms".to_owned(), num_or_null(report.center_ms)));
            fields.push(("scale_ms".to_owned(), num_or_null(report.scale_ms)));
            let slow: Vec<Json> = report
                .slow
                .iter()
                .map(|(key, ms)| {
                    Json::obj([("slice", Json::from(key.as_str())), ("avg_ms", num_or_null(*ms))])
                })
                .collect();
            fields.push(("slow_slices".to_owned(), Json::Arr(slow)));
            fields.push((
                "explanations".to_owned(),
                explanations_json(&report.table, &report.explanation.predicates, top),
            ));
            fields.push((
                "diagnostics".to_owned(),
                diagnostics_json(&report.explanation.diagnostics),
            ));
        }
    }
    Json::Obj(fields)
}

/// One JSON object per table row, keyed by column name.
fn table_rows_json(table: &Table) -> Json {
    let schema = table.schema();
    let rows = (0..table.len())
        .map(|row| {
            Json::Obj(
                schema
                    .iter()
                    .enumerate()
                    .map(|(attr, f)| {
                        let value = match table.value(row, attr) {
                            Ok(v) => match v.as_num() {
                                Some(n) => num_or_null(n),
                                None => Json::from(v.as_str().unwrap_or("")),
                            },
                            Err(_) => Json::Null,
                        };
                        (f.name().to_owned(), value)
                    })
                    .collect(),
            )
        })
        .collect();
    Json::Arr(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::{Feed, RequestParser};

    fn get(target: &str) -> Request {
        let mut parser = RequestParser::new();
        parser.push(format!("GET {target} HTTP/1.1\r\n\r\n").as_bytes());
        match parser.next_request() {
            Feed::Request(req) => req,
            _ => panic!("expected request"),
        }
    }

    #[test]
    fn bad_parameters_are_rejected() {
        assert_eq!(handle_slow(&get("/debug/slow?threshold=-1")).status, 400);
        assert_eq!(handle_slow(&get("/debug/slow?threshold=nope")).status, 400);
        assert_eq!(handle_slow(&get("/debug/slow?top=0")).status, 400);
        assert_eq!(handle_telemetry(&get("/debug/telemetry?format=xml")).status, 400);
    }
}
