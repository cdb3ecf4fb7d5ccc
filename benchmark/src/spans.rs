//! Folding recorded spans into one tree per request, and writing them out.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::io::Write;

use crate::probes::{parent_of, ReqKey, Span, CLIENT_REQUEST, GATEWAY_SESSION};

/// One JSON line per span: `{name, start_ns, end_ns, parent, req}`. The
/// parent is named, not numbered: a request has at most one span of each
/// parent kind, so (parent, req) identifies it.
pub fn write_jsonl(out: &mut impl Write, spans: &[Span]) -> std::io::Result<()> {
    let mut line = String::new();
    for s in spans {
        line.clear();
        let _ = write!(
            line,
            "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":",
            s.name, s.start_ns, s.end_ns
        );
        match parent_of(s.name) {
            Some(p) => {
                let _ = write!(line, "\"{p}\"");
            }
            None => line.push_str("null"),
        }
        match s.req {
            Some((client, id)) => {
                let _ = writeln!(line, ",\"req\":[{client},{id}]}}");
            }
            None => line.push_str(",\"req\":null}\n"),
        }
        out.write_all(line.as_bytes())?;
    }
    out.flush()
}

/// Nanoseconds of `[start, end)` covered by the union of `children`,
/// each clipped to the interval.
pub fn covered_ns(start: u64, end: u64, children: &mut [(u64, u64)]) -> u64 {
    children.sort_unstable();
    let (mut covered, mut reach) = (0, start);
    for &(s, e) in children.iter() {
        let (s, e) = (s.max(reach), e.min(end));
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    covered
}

/// Per-request durations folded out of a traced closed phase.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct Folded {
    /// `client.request` minus its `gateway.session`: client codec, link,
    /// wake-ups.
    pub client_link_ns: Vec<u64>,
    pub session_ns: Vec<u64>,
    /// `gateway.session` minus the part its children cover.
    pub session_self_ns: Vec<u64>,
    /// `client.request` spans that do not have exactly one
    /// `gateway.session` child. Must be zero.
    pub malformed: u64,
}

pub fn fold(spans: &[Span]) -> Folded {
    #[derive(Default)]
    struct Tree {
        client: Vec<(u64, u64)>,
        session: Vec<(u64, u64)>,
        leaves: Vec<(u64, u64)>,
    }
    let mut trees: HashMap<ReqKey, Tree> = HashMap::new();
    for s in spans {
        let Some(req) = s.req else { continue };
        let t = trees.entry(req).or_default();
        let iv = (s.start_ns, s.end_ns);
        match s.name {
            CLIENT_REQUEST => t.client.push(iv),
            GATEWAY_SESSION => t.session.push(iv),
            _ => t.leaves.push(iv),
        }
    }
    let mut out = Folded::default();
    for t in trees.values_mut() {
        if t.client.is_empty() {
            // A request of an unrecorded phase that a probe still saw end.
            continue;
        }
        let (&[(cs, ce)], &[(ss, se)]) = (&t.client[..], &t.session[..]) else {
            out.malformed += t.client.len() as u64;
            continue;
        };
        out.client_link_ns
            .push((ce - cs).saturating_sub(se.min(ce).saturating_sub(ss.max(cs))));
        out.session_ns.push(se - ss);
        out.session_self_ns
            .push((se - ss) - covered_ns(ss, se, &mut t.leaves));
    }
    out.client_link_ns.sort_unstable();
    out.session_ns.sort_unstable();
    out.session_self_ns.sort_unstable();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probes::{BACKEND_WRITE, REPL_RTT};

    fn span(name: &'static str, start_ns: u64, end_ns: u64, req: Option<ReqKey>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            req,
        }
    }

    #[test]
    fn coverage_is_a_clipped_union() {
        // Overlapping, nested, out-of-range and disjoint children.
        let mut kids = vec![(50, 70), (10, 30), (20, 40), (22, 25), (90, 200), (0, 5)];
        assert_eq!(covered_ns(10, 100, &mut kids), 30 + 20 + 10);
        assert_eq!(covered_ns(10, 100, &mut []), 0);
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let r = Some((0, 1));
        let spans = [
            span(CLIENT_REQUEST, 100, 1100, r),
            span(GATEWAY_SESSION, 200, 1000, r),
            span(BACKEND_WRITE, 300, 400, r),
            span(REPL_RTT, 350, 700, r),
            span(BACKEND_WRITE, 5000, 6000, None), // nobody's child
        ];
        let f = fold(&spans);
        assert_eq!(f.malformed, 0);
        assert_eq!(f.client_link_ns, vec![200]);
        assert_eq!(f.session_ns, vec![800]);
        assert_eq!(f.session_self_ns, vec![400]);
    }

    #[test]
    fn a_request_without_exactly_one_session_is_malformed() {
        let spans = [
            span(CLIENT_REQUEST, 0, 10, Some((0, 1))),
            span(CLIENT_REQUEST, 0, 10, Some((1, 1))),
            span(GATEWAY_SESSION, 1, 4, Some((1, 1))),
            span(GATEWAY_SESSION, 5, 9, Some((1, 1))),
            // A session span with no client span is ignored, not malformed.
            span(GATEWAY_SESSION, 5, 9, Some((1, 2))),
        ];
        let f = fold(&spans);
        assert_eq!(f.malformed, 2);
        assert!(f.session_ns.is_empty());
    }

    #[test]
    fn jsonl_lines_carry_parent_and_request() {
        let mut out = Vec::new();
        write_jsonl(
            &mut out,
            &[
                span(CLIENT_REQUEST, 1, 2, Some((0, 3))),
                span(BACKEND_WRITE, 4, 5, None),
            ],
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(
            lines[0],
            r#"{"name":"client.request","start_ns":1,"end_ns":2,"parent":null,"req":[0,3]}"#
        );
        assert_eq!(
            lines[1],
            r#"{"name":"cluster.backend.write_page","start_ns":4,"end_ns":5,"parent":"gateway.session","req":null}"#
        );
        for l in lines {
            fc_obs::json::parse(l).expect("valid JSON");
        }
    }
}
