//! The administrative commands the REPL and the wire protocol share.
//!
//! `:stats`, `:metrics`, `:wal status`, `:checkpoint`, `:trace last [n]`
//! and `:trace seq <s>` read (or, for `:checkpoint`, fold) kernel state
//! and answer in text. They are interpreted here, once: the REPL prints
//! the text, the server frames it.

use crate::kernel::DbKernel;
use ioql_telemetry::Span;

/// What every flight-recorder surface answers when there is no recorder.
pub(crate) const RECORDER_OFF: &str = "flight recorder off (trace_capacity is 0)";

impl DbKernel {
    /// Runs `line` if it is one of the shared admin commands; `None`
    /// means it is not (a query, a `define`, or a front-end command).
    /// A command answers `(tag, text)`: a one-word tag (the wire status
    /// is `ok <tag>`) and the text both front ends show.
    pub fn admin(&self, line: &str) -> Option<Result<(String, String), String>> {
        let reply = |tag: &str, text: String| Some(Ok((tag.to_string(), text)));
        match line {
            ":stats" => reply("stats", self.stats()),
            ":metrics" => reply("metrics", self.metrics().registry().render_prometheus()),
            ":wal status" => reply(
                "wal",
                match self.wal_status() {
                    Some(status) => format!("{status}\n"),
                    None => "wal: off (start with --durable <dir> to enable)\n".into(),
                },
            ),
            ":checkpoint" => Some(
                self.checkpoint()
                    .map(|()| ("checkpointed".to_string(), String::new()))
                    .map_err(|e| e.to_string()),
            ),
            _ => {
                let rest = line.strip_prefix(":trace ")?.trim();
                if rest == "last" || rest.starts_with("last ") || rest.starts_with("seq ") {
                    Some(self.traces(rest))
                } else {
                    None // `:trace <query>` is the REPL's step derivation
                }
            }
        }
    }

    /// `:stats`: cache, statement, VM, scheduler and snapshot counters,
    /// then every extent's size and version.
    fn stats(&self) -> String {
        let m = self.metrics();
        let s = self.cache_stats();
        let mut out = format!(
            "cache: {} hit(s), {} miss(es), {} eviction(s), {} live entr{}\n",
            s.hits,
            s.misses,
            s.evictions,
            s.entries,
            if s.entries == 1 { "y" } else { "ies" }
        );
        let s = self.statement_stats();
        out.push_str(&format!(
            "statements: {} hit(s), {} miss(es), {} eviction(s), {} live\n",
            s.hits, s.misses, s.evictions, s.entries
        ));
        out.push_str(&format!(
            "vm: {} node(s) compiled, {} interpreted, {} row(s) dispatched\n",
            m.vm_compiles.get(),
            m.vm_fallbacks.get(),
            m.eval.dispatches.get()
        ));
        let (commits, inflight, max_inflight, witnesses) = self.sched_snapshot();
        out.push_str(&format!(
            "sched: {commits} committed writer(s), {inflight} in-flight reader(s), \
             max concurrent {max_inflight}, admitted {}, serialized {}\n",
            m.sched.admitted.get(),
            m.sched.serialized.get(),
        ));
        if !witnesses.is_empty() {
            out.push_str(&format!("recent witnesses: {}\n", witnesses.join(" ")));
        }
        let snapshot = m.span(Span::SnapshotAcquire);
        out.push_str(&format!(
            "snapshot: {} acquire(s) in {} ns, chunks shared {}, copied {}\n",
            snapshot.count(),
            snapshot.sum_ns(),
            m.snapshot_chunks_shared.get(),
            m.snapshot_chunks_copied.get(),
        ));
        let state = self.read_state();
        for (e, _) in self.schema.extents() {
            out.push_str(&format!(
                "extent {e}: {} object(s), version {}\n",
                state.store.extents.members(e).map_or(0, |s| s.len()),
                state.store.extent_version(e)
            ));
        }
        out
    }

    /// `last [n]` / `seq <s>`: the matching flight-recorder records as
    /// text trees.
    fn traces(&self, selector: &str) -> Result<(String, String), String> {
        let recorder = self.recorder().ok_or(RECORDER_OFF)?;
        let records = match selector.strip_prefix("seq ") {
            Some(s) => {
                let seq = s
                    .trim()
                    .parse()
                    .map_err(|_| format!(":trace seq needs a number, got `{}`", s.trim()))?;
                recorder.by_seq(seq).into_iter().collect()
            }
            None => {
                let n = match selector["last".len()..].trim() {
                    "" => 1,
                    s => s
                        .parse()
                        .map_err(|_| format!(":trace last needs a count, got `{s}`"))?,
                };
                recorder.last(n)
            }
        };
        if records.is_empty() {
            return Err("no matching trace record".into());
        }
        let trees: Vec<String> = records.iter().map(|r| r.render()).collect();
        Ok((format!("traces count={}", records.len()), trees.join("\n")))
    }
}
