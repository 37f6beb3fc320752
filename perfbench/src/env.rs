//! The environment record printed at the start of every run.

use std::path::Path;

/// Filesystem type of the mount holding `path`, from `/proc/mounts`.
fn filesystem(path: &Path) -> String {
    let path = std::fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            let (_device, point, kind) = (fields.next()?, fields.next()?, fields.next()?);
            path.starts_with(point)
                .then(|| (point.len(), kind.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".into(), |(_, kind)| kind)
}

/// Prints the hardware threads, the filesystem of the scratch directory
/// and the fsync policy the engine uses.
pub fn print(scratch: &Path) {
    let threads = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    println!("# env available_parallelism={threads}");
    println!(
        "# env filesystem={} (scratch {})",
        filesystem(scratch),
        scratch.display()
    );
    println!(
        "# env fsync=one fsync per update_batch group commit; snapshots write-temp, fsync, rename, fsync-dir"
    );
    println!(
        "# env latencies are this machine's page cache and filesystem, not a storage device's"
    );
}
