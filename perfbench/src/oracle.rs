//! Output checks. Every failure counts into the run's `failed` total.

use lixto_http::Json;
use lixto_transform::InstanceDiff;

use crate::corpus::fingerprint;

/// A `POST /extract` response body must carry exactly the reference XML.
pub fn check_extract_body(body: &str, expected_xml: &str) -> Result<(), String> {
    let json = Json::parse(body).map_err(|e| format!("response is not JSON: {e:?}"))?;
    match json.get("xml").and_then(Json::as_str) {
        Some(xml) if xml == expected_xml => Ok(()),
        Some(_) => Err("response XML differs from the reference".into()),
        None => Err("response has no xml field".into()),
    }
}

/// What the web source served one watch over the whole run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Served {
    /// Highest content revision any fetch of the watch served.
    pub revision: u64,
    /// The watch's last fetch was the one that first served `revision`,
    /// so its result may still have been in flight when the scheduler
    /// stopped and its event may be missing.
    pub crossing_in_flight: bool,
}

/// The check of one watch's event stream, fed each event as it arrives:
/// exactly one event per revision crossing, numbered 1, 2, … and each
/// equal to `diff_snapshots` of the two reference snapshots it crosses
/// (compared by [`fingerprint`] against `expected[r - 1]`, the crossing
/// into revision `r`). Byte-only rechecks must deliver nothing, so an
/// event for a crossing the web source has not served yet fails.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct WatchCheck {
    delivered: u64,
    failures: u64,
}

impl WatchCheck {
    /// One delivered event; `crossed` is how many revision crossings the
    /// web source had served the watch when the event arrived.
    pub fn event(&mut self, expected: &[u64], crossed: u64, seq: u64, diff: &InstanceDiff) {
        self.delivered += 1;
        let k = self.delivered;
        let ok =
            seq == k && k <= crossed && expected.get(k as usize - 1) == Some(&fingerprint(diff));
        if !ok {
            self.failures += 1;
        }
    }

    /// Failures once the watch has stopped: wrong, duplicated or extra
    /// events, plus crossings that never delivered.
    pub fn failures(&self, served: Served) -> u64 {
        let required = served.revision - u64::from(served.crossing_in_flight);
        self.failures + required.saturating_sub(self.delivered)
    }
}

/// Check a whole event stream at once (for tests): every event arrives
/// after all of `served`'s crossings.
#[cfg(test)]
fn check_watch(expected: &[u64], served: Served, events: &[(u64, InstanceDiff)]) -> u64 {
    let mut check = WatchCheck::default();
    for (seq, diff) in events {
        check.event(expected, served.revision, *seq, diff);
    }
    check.failures(served)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lixto_transform::{diff_snapshots, ExtractionSnapshot};

    fn snap(texts: &[&str]) -> ExtractionSnapshot {
        ExtractionSnapshot::from_pairs(texts.iter().map(|t| ("name", *t)))
    }

    fn revisions() -> Vec<ExtractionSnapshot> {
        vec![snap(&["a", "b"]), snap(&["a", "c"]), snap(&["d", "c"])]
    }

    fn event(s: &[ExtractionSnapshot], r: usize) -> (u64, InstanceDiff) {
        (r as u64, diff_snapshots(&s[r - 1], &s[r]))
    }

    fn expected(s: &[ExtractionSnapshot]) -> Vec<u64> {
        (1..s.len()).map(|r| fingerprint(&event(s, r).1)).collect()
    }

    #[test]
    fn extract_bodies_must_match_the_reference() {
        let xml = "<shop><book>Dune</book></shop>";
        let body = format!(
            r#"{{"wrapper":"w","cache_hit":true,"xml":"{}"}}"#,
            xml.replace('"', "\\\"")
        );
        assert!(check_extract_body(&body, xml).is_ok());
        let corrupted = body.replace("Dune", "Dunf");
        assert!(check_extract_body(&corrupted, xml).is_err());
        assert!(check_extract_body(r#"{"wrapper":"w"}"#, xml).is_err());
        assert!(check_extract_body("<html>", xml).is_err());
    }

    #[test]
    fn exact_event_streams_pass() {
        let s = revisions();
        let served = Served {
            revision: 2,
            crossing_in_flight: false,
        };
        assert_eq!(
            check_watch(&expected(&s), served, &[event(&s, 1), event(&s, 2)]),
            0
        );
        // The last crossing may be lost with the in-flight recheck.
        let in_flight = Served {
            revision: 2,
            crossing_in_flight: true,
        };
        assert_eq!(check_watch(&expected(&s), in_flight, &[event(&s, 1)]), 0);
        assert_eq!(
            check_watch(&expected(&s), in_flight, &[event(&s, 1), event(&s, 2)]),
            0
        );
    }

    #[test]
    fn missing_duplicated_extra_and_wrong_events_fail() {
        let s = revisions();
        let served = Served {
            revision: 2,
            crossing_in_flight: false,
        };
        assert_eq!(
            check_watch(&expected(&s), served, &[event(&s, 1)]),
            1,
            "missing"
        );
        assert_eq!(
            check_watch(
                &expected(&s),
                served,
                &[event(&s, 1), event(&s, 1), event(&s, 2)]
            ),
            2,
            "a duplicate shifts every later sequence number"
        );
        let only_first = Served {
            revision: 1,
            crossing_in_flight: false,
        };
        assert_eq!(
            check_watch(&expected(&s), only_first, &[event(&s, 1), event(&s, 2)]),
            1,
            "an event on a byte-only recheck"
        );
        let wrong = (2, diff_snapshots(&s[0], &s[2]));
        assert_eq!(
            check_watch(&expected(&s), served, &[event(&s, 1), wrong]),
            1,
            "wrong diff"
        );
    }
}
