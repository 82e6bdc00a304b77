//! Byte fuzzing of the parsers that read outside input: protocol request
//! lines, job spec files and trace files.  Whatever the bytes, each parser
//! returns a value or a structured error — it never panics, and never
//! recurses deep enough to overflow the stack and abort the process.  (The
//! result cache's entry decoder, which is private, is fuzzed in
//! `server/src/cache.rs`.)
//!
//! Inputs are random bytes, random strings over JSON's own characters (so
//! the parsers get past the first byte), and one-byte mutations and
//! truncations of valid documents.

use engine::{JobList, OracleProbeSpec, PrefetcherSpec, Registry, SimJob};
use ghb::GhbConfig;
use memsim::HierarchyConfig;
use proptest::prelude::*;
use server::{Request, SubmitRequest};
use sms::RegionConfig;
use std::io::{self, BufReader};
use timing::TimingConfig;
use trace::{Application, GeneratorConfig, MemAccess, TraceSource};

/// The bytes JSON is made of, weighted towards its structure.
const JSON_BYTES: &[u8] = b"{}[]{}[]\"\":,:,0123456789.-+eE truefalsenull\\u\n\t";

/// Random strings over [`JSON_BYTES`], 0 to 2 KiB long.
fn json_text() -> impl Strategy<Value = String> {
    proptest::collection::vec(0..JSON_BYTES.len(), 0..2048).prop_map(|picks| {
        picks
            .into_iter()
            .map(|pick| char::from(JSON_BYTES[pick]))
            .collect()
    })
}

/// Random bytes, 0 to 2 KiB long.
fn bytes() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(0u8..=255, 0..2048)
}

/// `text` with the byte at `position` (wrapped to its length) set to
/// `byte`.
fn mutated(text: &[u8], position: usize, byte: u8) -> Vec<u8> {
    let mut out = text.to_vec();
    let at = position % out.len();
    out[at] = byte;
    out
}

/// `text`'s first `position` bytes (wrapped to its length).
fn truncated(text: &[u8], position: usize) -> Vec<u8> {
    text[..position % text.len()].to_vec()
}

/// A valid spec covering every trace source kind, most plugins and a
/// timing job.
fn job_list() -> JobList {
    let job = |prefetcher| {
        SimJob::new(memsim::SimJob::synthetic(
            Application::OltpDb2,
            GeneratorConfig::default().with_cpus(2),
            2006,
            2,
            HierarchyConfig::scaled(),
            prefetcher,
            1_000,
        ))
    };
    let file = |source| {
        SimJob::new(memsim::SimJob {
            source,
            ..job(PrefetcherSpec::null()).sim
        })
    };
    JobList::new(vec![
        job(PrefetcherSpec::null()),
        job(PrefetcherSpec::sms_paper_default()).with_timing(TimingConfig::table1(), 4),
        job(PrefetcherSpec::ghb(&GhbConfig::paper_small())),
        job(PrefetcherSpec::density_probe(&RegionConfig::paper_default())),
        job(PrefetcherSpec::oracle_probe(&OracleProbeSpec {
            regions: vec![RegionConfig::new(512, 64)],
            read_only: true,
        })),
        file(TraceSource::binary_file("trace.bin")),
        file(TraceSource::text_file("trace.txt")),
    ])
}

/// A valid `Submit` request line carrying [`job_list`].
fn submit_line() -> Vec<u8> {
    let request = Request::Submit(SubmitRequest {
        client: "fuzz".to_string(),
        priority: 1,
        workers: 0,
        segment_size: 0,
        speculate: 0,
        timeout_ms: Some(1_000),
        spec: serde_json::to_value(&job_list()).expect("serializes"),
    });
    let mut line = Vec::new();
    server::protocol::write_line(&mut line, &request).expect("writes");
    line
}

/// Decodes one request line: a request, a clean end of input, or an
/// `InvalidData` error.
fn read_request(line: &[u8]) {
    match server::protocol::read_line::<_, Request>(&mut BufReader::new(line)) {
        Ok(_) => {}
        Err(e) => assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{e}"),
    }
}

/// Loads a spec the way `run --spec` and the server do: parse, then check
/// every prefetcher spec against the built-ins.  Either step may refuse it.
fn load_spec(text: &str) {
    if let Ok(list) = JobList::from_json(text) {
        let _ = list.check(Registry::builtin());
    }
}

/// A valid trace of `n` accesses.
fn accesses(n: usize) -> Vec<MemAccess> {
    Application::Ocean
        .stream(7, &GeneratorConfig::default().with_cpus(2))
        .take(n)
        .collect()
}

/// Drains a trace reader: every item is a record or an error, and nothing
/// follows the first error.
fn drain(reader: impl Iterator<Item = io::Result<MemAccess>>) {
    let mut failed = false;
    for item in reader {
        assert!(!failed, "the reader yielded an item after an error");
        failed = item.is_err();
    }
}

fn read_binary(bytes: &[u8]) {
    if let Ok(reader) = trace::io::read_binary_iter(bytes) {
        drain(reader);
    }
}

fn read_text(bytes: &[u8]) {
    drain(trace::io::read_text_iter(bytes));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn request_lines_decode_or_fail_cleanly(
        random in bytes(),
        text in json_text(),
        (position, byte) in (0usize..1 << 20, 0u8..=255),
    ) {
        read_request(&random);
        read_request(text.as_bytes());
        let valid = submit_line();
        read_request(&mutated(&valid, position, byte));
        read_request(&truncated(&valid, position));
    }

    #[test]
    fn spec_files_load_or_fail_cleanly(
        random in bytes(),
        text in json_text(),
        (position, byte) in (0usize..1 << 20, 0u8..128),
    ) {
        load_spec(&String::from_utf8_lossy(&random));
        load_spec(&text);
        let valid = serde_json::to_string_pretty(&job_list()).expect("serializes");
        load_spec(std::str::from_utf8(&mutated(valid.as_bytes(), position, byte)).unwrap());
        load_spec(std::str::from_utf8(&truncated(valid.as_bytes(), position)).unwrap());
    }

    #[test]
    fn trace_files_read_or_fail_cleanly(
        random in bytes(),
        (position, byte) in (0usize..1 << 20, 0u8..=255),
    ) {
        read_binary(&random);
        read_text(&random);
        let trace = accesses(40);
        let mut binary = Vec::new();
        trace::io::write_binary(&mut binary, &trace).expect("writes");
        read_binary(&mutated(&binary, position, byte));
        read_binary(&truncated(&binary, position));
        let mut text = Vec::new();
        trace::io::write_text(&mut text, &trace).expect("writes");
        read_text(&mutated(&text, position, byte));
    }
}

#[test]
fn json_nested_past_the_parser_limit_is_an_error() {
    // 100,000 levels would overflow any thread's stack in a parser that
    // recursed once per level; the request line wraps the spec two levels
    // deeper, as a real `Submit` does.
    let deep = "[".repeat(100_000);
    let line = format!(r#"{{"Submit":{{"spec":{deep}"#);
    let err = server::protocol::read_line::<_, Request>(&mut BufReader::new(line.as_bytes()))
        .expect_err("too deep");
    assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    assert!(err.to_string().contains("nesting"), "{err}");
    let err = JobList::from_json(&deep).expect_err("too deep");
    assert!(err.to_string().contains("nesting"), "{err}");
}
