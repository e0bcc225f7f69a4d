//! Small measurement helpers: quantiles, medians, peak RSS, timers and the
//! metric map that becomes the result line.

use serde_json::{json, Value as Json};
use std::collections::BTreeMap;
use std::time::Instant;

/// Linear-interpolated quantile of `xs` (0 ≤ q ≤ 1); 0 for no samples.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of `xs`.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Seconds elapsed since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Reads one `kB` field (e.g. `VmHWM`) of `/proc/<pid>/status`, in MiB.
pub fn proc_status_mb(pid: &str, field: &str) -> Option<f64> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = text.lines().find(|l| l.starts_with(field))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Peak resident set size of this process, in MiB.
pub fn own_peak_rss_mb() -> f64 {
    proc_status_mb("self", "VmHWM:").unwrap_or(0.0)
}

/// Pids of this process's direct children (every thread's list).
pub fn child_pids() -> Vec<String> {
    let mut out = Vec::new();
    if let Ok(tasks) = std::fs::read_dir("/proc/self/task") {
        for task in tasks.flatten() {
            if let Ok(list) = std::fs::read_to_string(task.path().join("children")) {
                out.extend(list.split_whitespace().map(str::to_string));
            }
        }
    }
    out
}

/// A p50 read from a coarse base-2 histogram snapshot (`rega_obs`
/// `Histogram::snapshot`), interpolated linearly inside the bucket that
/// holds the rank instead of reporting the bucket's upper bound.
pub fn histogram_p50_ns(snapshot: &Json) -> f64 {
    let count = snapshot["count"].as_u64().unwrap_or(0);
    if count == 0 {
        return 0.0;
    }
    let rank = count as f64 * 0.5;
    let mut seen = 0.0;
    for b in snapshot["buckets"].as_array().into_iter().flatten() {
        let le = b["le_ns"].as_u64().unwrap_or(0) as f64;
        let n = b["count"].as_u64().unwrap_or(0) as f64;
        if seen + n >= rank {
            let lo = le / 2.0;
            return lo + (le - lo) * ((rank - seen) / n.max(1.0));
        }
        seen += n;
    }
    0.0
}

/// The calibration kernel's time at the reference machine speed, seconds.
/// Timed figures are reported at this speed (see [`Calibration`]).
const CAL_REFERENCE_SECS: f64 = 0.0016;
/// Kernel runs per calibration; their median is the measurement.
const CAL_RUNS: usize = 7;

/// A fixed CPU kernel that shares no code with the system under test:
/// hashing, sorting, formatting and allocation, roughly the instruction mix
/// of the workloads. Returns a checksum so the work cannot be elided.
fn calibration_kernel() -> u64 {
    use std::fmt::Write as _;
    let mut map = std::collections::HashMap::with_capacity(1024);
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for i in 0..12_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *map.entry(x % 4096).or_insert(0u64) += i;
    }
    let mut v: Vec<u64> = map.values().copied().collect();
    v.sort_unstable();
    let mut text = String::new();
    for n in &v {
        let _ = write!(text, "{n},");
    }
    let mut tree = std::collections::BTreeMap::new();
    for (i, chunk) in text.as_bytes().chunks(7).enumerate() {
        tree.insert(chunk.to_vec(), i);
    }
    tree.len() as u64 ^ v.iter().fold(0u64, |a, b| a.wrapping_add(*b))
}

/// The machine's speed next to a timed segment, from the calibration
/// kernel. The container shares its cores with other tenants, and the
/// same work takes up to 1.6x longer in a slow phase that lasts seconds to
/// minutes; scaling each segment's times by `speed()` reports them at the
/// reference speed, so a phase change between runs does not read as a
/// change of the program. The benchmark runs pinned to one CPU (see
/// `run.py`), so the kernel measures the core the workload runs on.
#[derive(Clone, Copy, Debug)]
pub struct Calibration {
    secs: f64,
    reference: f64,
}

/// The loopback exchange's time at the reference machine speed, seconds.
const IPC_REFERENCE_SECS: f64 = 0.0010;
/// Round trips per loopback exchange.
const IPC_ROUND_TRIPS: usize = 64;
/// Bytes sent per round trip, about one `event-batch` frame.
const IPC_REQUEST_BYTES: usize = 4096;

/// The UTF-8 scan's time at the reference machine speed, seconds.
const UTF8_REFERENCE_SECS: f64 = 0.0015;

/// UTF-8 validation of every suffix of a 6 KiB ASCII buffer: the
/// access pattern of the vendored JSON parser, which validates the rest of
/// its input at every string character. The validation runs on vector
/// units, which a tenant on the sibling hyperthread contends for; the
/// scalar compute kernel does not see that contention.
fn utf8_kernel() -> usize {
    let buf = vec![b'a'; 6144];
    (0..buf.len())
        .filter(|&i| std::str::from_utf8(&buf[i..]).is_ok())
        .count()
}

/// A loopback TCP exchange between two threads: `IPC_ROUND_TRIPS` times a
/// 4 KiB request and a 64-byte reply, one in flight. It exercises what the
/// compute kernel does not: system calls, socket buffers, wake-ups and
/// context switches, whose cost moves more than compute's between phases.
fn ipc_kernel() -> std::io::Result<f64> {
    use std::io::{Read, Write};
    let listener = std::net::TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    std::thread::scope(|s| {
        let echo = s.spawn(move || -> std::io::Result<()> {
            let (mut conn, _) = listener.accept()?;
            conn.set_nodelay(true)?;
            let mut buf = vec![0u8; IPC_REQUEST_BYTES];
            for _ in 0..IPC_ROUND_TRIPS {
                conn.read_exact(&mut buf)?;
                conn.write_all(&buf[..64])?;
            }
            Ok(())
        });
        let mut conn = std::net::TcpStream::connect(addr)?;
        conn.set_nodelay(true)?;
        let request = vec![7u8; IPC_REQUEST_BYTES];
        let mut reply = [0u8; 64];
        let t0 = Instant::now();
        for _ in 0..IPC_ROUND_TRIPS {
            conn.write_all(&request)?;
            conn.read_exact(&mut reply)?;
        }
        let elapsed = secs(t0);
        echo.join().expect("the echo thread does not panic")?;
        Ok(elapsed)
    })
}

impl Calibration {
    /// Times the kernel now, on this thread.
    pub fn measure() -> Calibration {
        let mut times = Vec::with_capacity(CAL_RUNS);
        for _ in 0..CAL_RUNS {
            let t0 = Instant::now();
            std::hint::black_box(calibration_kernel());
            times.push(secs(t0));
        }
        Calibration {
            secs: median(&times),
            reference: CAL_REFERENCE_SECS,
        }
    }

    /// Times the compute kernel, the loopback exchange and the UTF-8 scan:
    /// the speed of a workload that spends its time in all three, as the
    /// ingest paths do.
    pub fn measure_ingest() -> Calibration {
        let compute = Calibration::measure();
        let ipc: Vec<f64> = (0..3)
            .map(|_| ipc_kernel().expect("loopback TCP works wherever the workloads do"))
            .collect();
        let utf8: Vec<f64> = (0..CAL_RUNS)
            .map(|_| {
                let t0 = Instant::now();
                std::hint::black_box(utf8_kernel());
                secs(t0)
            })
            .collect();
        Calibration {
            secs: compute.secs + median(&ipc) + median(&utf8),
            reference: CAL_REFERENCE_SECS + IPC_REFERENCE_SECS + UTF8_REFERENCE_SECS,
        }
    }

    /// The mean of two calibrations (before and after a segment).
    pub fn around(before: Calibration, after: Calibration) -> Calibration {
        Calibration {
            secs: (before.secs + after.secs) / 2.0,
            reference: before.reference,
        }
    }

    /// Machine speed relative to the reference: below 1 in a slow phase.
    pub fn speed(self) -> f64 {
        self.reference / self.secs
    }

    /// Scales a duration measured at this speed to the reference speed.
    pub fn time(self, secs: f64) -> f64 {
        secs * self.speed()
    }
}

/// Runs `f` to fill a metric set, and reports its timed entries at the
/// reference machine speed: durations scaled by `speed()`, rates by its
/// inverse.
pub fn calibrated(f: impl FnOnce(&mut Metrics) -> Result<(), String>) -> Result<Metrics, String> {
    let before = Calibration::measure();
    let mut m = Metrics::default();
    f(&mut m)?;
    let cal = Calibration::around(before, Calibration::measure());
    for (value, unit) in m.0.values_mut() {
        match *unit {
            "s" | "ms" | "us" | "ns" => *value = cal.time(*value),
            "1/s" => *value /= cal.speed(),
            _ => {}
        }
    }
    Ok(m)
}

/// Named metrics with units, in insertion-independent (sorted) order.
#[derive(Default)]
pub struct Metrics(BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    /// Records `name = value unit` (later records overwrite earlier ones).
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.0.insert(name.to_string(), (value, unit));
    }

    /// Whether `name` was recorded.
    pub fn has(&self, name: &str) -> bool {
        self.0.contains_key(name)
    }

    /// The recorded value of `name`, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).map(|(v, _)| *v)
    }

    /// Copies every metric of `other` that is not recorded here yet.
    pub fn fill_from(&mut self, other: &Metrics) {
        for (k, v) in &other.0 {
            self.0.entry(k.clone()).or_insert(*v);
        }
    }

    /// The `metrics` object of the result line.
    pub fn to_json(&self) -> Json {
        let mut obj = BTreeMap::new();
        for (name, (value, unit)) in &self.0 {
            obj.insert(name.clone(), json!({"value": *value, "unit": *unit}));
        }
        Json::Object(obj)
    }
}

/// FNV-1a over a sequence of byte strings, each length-prefixed so that
/// different splits of the same bytes fingerprint differently.
pub fn fingerprint<'a>(parts: impl IntoIterator<Item = &'a [u8]>) -> u64 {
    let mut buf = Vec::new();
    let mut acc = 0u64;
    for p in parts {
        buf.clear();
        buf.extend_from_slice(&acc.to_le_bytes());
        buf.extend_from_slice(&(p.len() as u64).to_le_bytes());
        buf.extend_from_slice(p);
        acc = rega_stream::fnv1a(&buf);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert_eq!(median(&xs), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn histogram_p50_interpolates_inside_the_bucket() {
        let h = rega_obs::Histogram::new();
        for ns in [1100, 1200, 1300, 1400] {
            h.record_ns(ns);
        }
        let p50 = histogram_p50_ns(&h.snapshot());
        assert!(p50 > 1024.0 && p50 < 2048.0, "{p50}");
    }

    #[test]
    fn fingerprints_depend_on_split() {
        let a = fingerprint([b"ab".as_slice(), b"c".as_slice()]);
        let b = fingerprint([b"a".as_slice(), b"bc".as_slice()]);
        assert_ne!(a, b);
        assert_eq!(a, fingerprint([b"ab".as_slice(), b"c".as_slice()]));
    }
}
