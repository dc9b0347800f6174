//! Host/parallelism metadata for the machine-readable bench JSON, and
//! the one writer for those documents.
//!
//! Every bench writes its `target/bench-results/*.json` document through
//! [`write_bench_json`], which embeds the host metadata under a `"meta"`
//! key, so `BENCH_*.json` trajectories collected on different machines
//! (or different `QUICKSEL_THREADS` settings) stay comparable: a 2×
//! headline on a 16-core box and a 1.0× on a 1-core CI runner are both
//! *expected*, and the metadata is what tells them apart.

/// One JSON object with the effective workspace-pool thread count, the
/// host's advertised parallelism, any `QUICKSEL_THREADS` override, and
/// the OS/arch pair. Forces the global pool into existence (and thereby
/// warms it) on first call.
fn host_meta_json() -> String {
    let available =
        std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1);
    let threads = quicksel_parallel::global().threads();
    // Parse the override exactly like `quicksel_parallel::default_threads`
    // does (emit it as a JSON number); an unparsable value had no effect
    // on the pool and is reported as null rather than interpolated raw
    // into the document.
    let env = std::env::var("QUICKSEL_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .map_or_else(|| "null".to_string(), |n| n.max(1).to_string());
    format!(
        "{{\"threads\":{threads},\"available_parallelism\":{available},\
         \"quicksel_threads_env\":{env},\"os\":\"{}\",\"arch\":\"{}\"}}",
        std::env::consts::OS,
        std::env::consts::ARCH
    )
}

/// Prints one bench's machine-readable result and writes it to the path
/// in the environment variable `out_env`, by default
/// `target/bench-results/<name>.json` (relative to the working
/// directory). The document is `{"bench":<name>,"meta":<host meta>,
/// <fields>}`: `fields` holds the bench's own members, already JSON. A
/// failed write is reported on stderr; the printed copy still stands.
pub fn write_bench_json(name: &str, out_env: &str, fields: &str) {
    let json = bench_document(name, fields);
    println!("{json}");
    let out =
        std::env::var(out_env).unwrap_or_else(|_| format!("target/bench-results/{name}.json"));
    if let Some(parent) = std::path::Path::new(&out).parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    match std::fs::write(&out, format!("{json}\n")) {
        Ok(()) => println!("wrote {out}"),
        Err(e) => eprintln!("could not write {out}: {e}"),
    }
}

fn bench_document(name: &str, fields: &str) -> String {
    format!("{{\"bench\":\"{name}\",\"meta\":{},{fields}}}", host_meta_json())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn document_leads_with_bench_and_meta() {
        let doc = bench_document("demo", "\"x\":1");
        assert!(doc.starts_with("{\"bench\":\"demo\",\"meta\":{\"threads\":"), "{doc}");
        assert!(doc.ends_with("},\"x\":1}"), "{doc}");
    }

    #[test]
    fn meta_has_the_comparability_keys() {
        let meta = host_meta_json();
        for key in
            ["\"threads\":", "\"available_parallelism\":", "\"quicksel_threads_env\":", "\"os\":"]
        {
            assert!(meta.contains(key), "missing {key} in {meta}");
        }
        assert!(meta.starts_with('{') && meta.ends_with('}'));
    }
}
