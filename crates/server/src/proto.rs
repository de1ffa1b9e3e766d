//! The wire protocol: one request per `\n`-terminated line, one or more
//! response lines per request, always in request order.
//!
//! Grammar (tokens separated by single spaces; `name` is `[A-Za-z0-9_.-]+`,
//! at most 64 bytes; keys/values/deltas are decimal `u64`):
//!
//! ```text
//! PING                      -> PONG
//! GET  name key             -> VALUE v | NIL          (map lookup)
//! GET  name                 -> VALUE v                (counter committed value)
//! PUT  name key value       -> OK                     (map insert/overwrite)
//! DEL  name key             -> VALUE old | NIL        (map remove)
//! INC  name [delta]         -> OK                     (counter += delta, default 1)
//! ENQ  name value           -> OK                     (queue enqueue)
//! DEQ  name                 -> VALUE v | NIL          (queue dequeue)
//! OPUT name key value       -> OK                     (ordered-map insert)
//! OGET name key             -> VALUE v | NIL          (ordered-map lookup)
//! ODEL name key             -> VALUE old | NIL        (ordered-map remove)
//! SCAN name lo hi           -> VALUE n k=v ...        (entries of [lo, hi))
//! MULTI                     -> OK                     (open a batch)
//!   <data command>          -> QUEUED                 (repeated)
//! EXEC                      -> RESULTS n, then n response lines
//! DISCARD                   -> OK                     (drop the open batch)
//! STATS                     -> STATS <one-line JSON>
//! TRACE START [n]           -> OK                     (clear + sample 1-in-n)
//! TRACE STOP                -> OK                     (restore default rate)
//! TRACE DUMP                -> TRACE <one-line Chrome trace JSON>
//! SHUTDOWN                  -> OK                     (begin graceful drain)
//! QUIT                      -> OK, connection closes
//! ```
//!
//! Malformed input earns `ERR <reason>`; a request whose transaction
//! fails even in the STM's serial-irrevocable fallback earns `BUSY`,
//! which is accounted separately from protocol errors.
//! Maps, counters, queues, and ordered maps live in separate namespaces,
//! so a name never changes kind. `SCAN` ranges are half-open; reversed
//! bounds (`lo > hi`) are rejected at parse time, mirroring the wrapper's
//! own abort.

/// Maximum accepted structure-name length, in bytes.
pub const MAX_NAME: usize = 64;

/// A data command: executes inside a transaction and yields exactly one
/// response line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Cmd {
    /// `GET name key` — map lookup.
    MapGet {
        /// Map name.
        name: String,
        /// Key.
        key: u64,
    },
    /// `PUT name key value` — map insert/overwrite.
    MapPut {
        /// Map name.
        name: String,
        /// Key.
        key: u64,
        /// Value.
        value: u64,
    },
    /// `DEL name key` — map remove.
    MapDel {
        /// Map name.
        name: String,
        /// Key.
        key: u64,
    },
    /// `GET name` — committed counter value.
    CounterGet {
        /// Counter name.
        name: String,
    },
    /// `INC name delta` — counter increment.
    CounterInc {
        /// Counter name.
        name: String,
        /// Amount to add (1..=[`MAX_DELTA`]).
        delta: u64,
    },
    /// `ENQ name value` — queue enqueue.
    QueueEnq {
        /// Queue name.
        name: String,
        /// Value.
        value: u64,
    },
    /// `DEQ name` — queue dequeue.
    QueueDeq {
        /// Queue name.
        name: String,
    },
    /// `OPUT name key value` — ordered-map insert/overwrite.
    OrdPut {
        /// Ordered-map name.
        name: String,
        /// Key.
        key: u64,
        /// Value.
        value: u64,
    },
    /// `OGET name key` — ordered-map lookup.
    OrdGet {
        /// Ordered-map name.
        name: String,
        /// Key.
        key: u64,
    },
    /// `ODEL name key` — ordered-map remove.
    OrdDel {
        /// Ordered-map name.
        name: String,
        /// Key.
        key: u64,
    },
    /// `SCAN name lo hi` — ordered-map range scan over `[lo, hi)`.
    OrdScan {
        /// Ordered-map name.
        name: String,
        /// Inclusive lower bound.
        lo: u64,
        /// Exclusive upper bound (`lo <= hi` enforced at parse time).
        hi: u64,
    },
}

/// Largest accepted `INC` delta; increments replay the counter's unit
/// `incr` inside one transaction, so the delta bounds per-request work.
pub const MAX_DELTA: u64 = 4096;

impl Cmd {
    /// Stable short label for latency accounting and `op_site!` tags.
    pub fn op_name(&self) -> &'static str {
        match self {
            Cmd::MapGet { .. } => "get",
            Cmd::MapPut { .. } => "put",
            Cmd::MapDel { .. } => "del",
            Cmd::CounterGet { .. } => "cget",
            Cmd::CounterInc { .. } => "inc",
            Cmd::QueueEnq { .. } => "enq",
            Cmd::QueueDeq { .. } => "deq",
            Cmd::OrdPut { .. } => "oput",
            Cmd::OrdGet { .. } => "oget",
            Cmd::OrdDel { .. } => "odel",
            Cmd::OrdScan { .. } => "scan",
        }
    }
}

/// One parsed request line: either a data command or a connection-level
/// control verb.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Line {
    /// A data command (see [`Cmd`]).
    Data(Cmd),
    /// `PING`.
    Ping,
    /// `MULTI` — open a batch.
    Multi,
    /// `EXEC` — run the open batch as one transaction.
    Exec,
    /// `DISCARD` — drop the open batch.
    Discard,
    /// `STATS` — one-line JSON snapshot.
    Stats,
    /// `TRACE …` — flight-recorder control (see [`TraceCmd`]).
    Trace(TraceCmd),
    /// `SHUTDOWN` — begin graceful server drain.
    Shutdown,
    /// `QUIT` — close this connection.
    Quit,
}

/// A `TRACE` subcommand controlling the sampling flight recorder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceCmd {
    /// `TRACE START [n]` — clear retained events and sample 1-in-`n`
    /// transactions (omitted `n` keeps the current rate).
    Start(Option<u64>),
    /// `TRACE STOP` — restore the server's configured default rate.
    Stop,
    /// `TRACE DUMP` — encode retained events as one-line Chrome trace
    /// JSON (loadable in Perfetto / `chrome://tracing`).
    Dump,
}

/// Structure-name validity shared by both wire protocols: nonempty,
/// at most [`MAX_NAME`] bytes, `[A-Za-z0-9_.-]` only.
pub(crate) fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= MAX_NAME
        && name.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'.' || b == b'-')
}

fn name_token(token: Option<&str>, verb: &str) -> Result<String, String> {
    let name = token.ok_or_else(|| format!("{verb} needs a name"))?;
    if !valid_name(name) {
        return Err(format!("bad name {name:?}"));
    }
    Ok(name.to_string())
}

fn num_token(token: Option<&str>, what: &str) -> Result<u64, String> {
    let raw = token.ok_or_else(|| format!("missing {what}"))?;
    raw.parse().map_err(|_| format!("bad {what} {raw:?}"))
}

fn end(mut rest: std::str::SplitWhitespace<'_>, verb: &str) -> Result<(), String> {
    match rest.next() {
        None => Ok(()),
        Some(extra) => Err(format!("trailing token {extra:?} after {verb}")),
    }
}

/// Parse one request line.
///
/// # Errors
///
/// Returns the human-readable reason sent back as `ERR <reason>`.
pub fn parse_line(line: &str) -> Result<Line, String> {
    let mut tokens = line.split_whitespace();
    let verb = tokens.next().ok_or_else(|| "empty request".to_string())?;
    let parsed = match verb {
        "PING" => {
            end(tokens, verb)?;
            Line::Ping
        }
        "GET" => {
            let name = name_token(tokens.next(), verb)?;
            match tokens.next() {
                // Two-argument form: map lookup.
                Some(key) => {
                    let key = num_token(Some(key), "key")?;
                    end(tokens, verb)?;
                    Line::Data(Cmd::MapGet { name, key })
                }
                // One-argument form: committed counter value.
                None => Line::Data(Cmd::CounterGet { name }),
            }
        }
        "PUT" => {
            let name = name_token(tokens.next(), verb)?;
            let key = num_token(tokens.next(), "key")?;
            let value = num_token(tokens.next(), "value")?;
            end(tokens, verb)?;
            Line::Data(Cmd::MapPut { name, key, value })
        }
        "DEL" => {
            let name = name_token(tokens.next(), verb)?;
            let key = num_token(tokens.next(), "key")?;
            end(tokens, verb)?;
            Line::Data(Cmd::MapDel { name, key })
        }
        "INC" => {
            let name = name_token(tokens.next(), verb)?;
            let delta = match tokens.next() {
                Some(raw) => num_token(Some(raw), "delta")?,
                None => 1,
            };
            end(tokens, verb)?;
            if delta == 0 || delta > MAX_DELTA {
                return Err(format!("delta must be in 1..={MAX_DELTA}"));
            }
            Line::Data(Cmd::CounterInc { name, delta })
        }
        "ENQ" => {
            let name = name_token(tokens.next(), verb)?;
            let value = num_token(tokens.next(), "value")?;
            end(tokens, verb)?;
            Line::Data(Cmd::QueueEnq { name, value })
        }
        "DEQ" => {
            let name = name_token(tokens.next(), verb)?;
            end(tokens, verb)?;
            Line::Data(Cmd::QueueDeq { name })
        }
        "OPUT" => {
            let name = name_token(tokens.next(), verb)?;
            let key = num_token(tokens.next(), "key")?;
            let value = num_token(tokens.next(), "value")?;
            end(tokens, verb)?;
            Line::Data(Cmd::OrdPut { name, key, value })
        }
        "OGET" => {
            let name = name_token(tokens.next(), verb)?;
            let key = num_token(tokens.next(), "key")?;
            end(tokens, verb)?;
            Line::Data(Cmd::OrdGet { name, key })
        }
        "ODEL" => {
            let name = name_token(tokens.next(), verb)?;
            let key = num_token(tokens.next(), "key")?;
            end(tokens, verb)?;
            Line::Data(Cmd::OrdDel { name, key })
        }
        "SCAN" => {
            let name = name_token(tokens.next(), verb)?;
            let lo = num_token(tokens.next(), "lo")?;
            let hi = num_token(tokens.next(), "hi")?;
            end(tokens, verb)?;
            if lo > hi {
                return Err(format!("reversed scan bounds {lo} > {hi}"));
            }
            Line::Data(Cmd::OrdScan { name, lo, hi })
        }
        "MULTI" => {
            end(tokens, verb)?;
            Line::Multi
        }
        "EXEC" => {
            end(tokens, verb)?;
            Line::Exec
        }
        "DISCARD" => {
            end(tokens, verb)?;
            Line::Discard
        }
        "STATS" => {
            end(tokens, verb)?;
            Line::Stats
        }
        "TRACE" => {
            let sub = tokens.next().ok_or_else(|| "TRACE needs START|STOP|DUMP".to_string())?;
            let cmd = match sub {
                "START" => {
                    let every = match tokens.next() {
                        Some(raw) => Some(num_token(Some(raw), "sample rate")?),
                        None => None,
                    };
                    TraceCmd::Start(every)
                }
                "STOP" => TraceCmd::Stop,
                "DUMP" => TraceCmd::Dump,
                other => return Err(format!("unknown TRACE subcommand {other:?}")),
            };
            end(tokens, verb)?;
            Line::Trace(cmd)
        }
        "SHUTDOWN" => {
            end(tokens, verb)?;
            Line::Shutdown
        }
        "QUIT" => {
            end(tokens, verb)?;
            Line::Quit
        }
        other => return Err(format!("unknown verb {other:?}")),
    };
    Ok(parsed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_verb() {
        assert_eq!(parse_line("PING").unwrap(), Line::Ping);
        assert_eq!(
            parse_line("GET m 7").unwrap(),
            Line::Data(Cmd::MapGet { name: "m".into(), key: 7 })
        );
        assert_eq!(
            parse_line("GET hits").unwrap(),
            Line::Data(Cmd::CounterGet { name: "hits".into() })
        );
        assert_eq!(
            parse_line("PUT m 7 42").unwrap(),
            Line::Data(Cmd::MapPut { name: "m".into(), key: 7, value: 42 })
        );
        assert_eq!(
            parse_line("DEL m 7").unwrap(),
            Line::Data(Cmd::MapDel { name: "m".into(), key: 7 })
        );
        assert_eq!(
            parse_line("INC hits").unwrap(),
            Line::Data(Cmd::CounterInc { name: "hits".into(), delta: 1 })
        );
        assert_eq!(
            parse_line("INC hits 3").unwrap(),
            Line::Data(Cmd::CounterInc { name: "hits".into(), delta: 3 })
        );
        assert_eq!(
            parse_line("ENQ q 9").unwrap(),
            Line::Data(Cmd::QueueEnq { name: "q".into(), value: 9 })
        );
        assert_eq!(parse_line("DEQ q").unwrap(), Line::Data(Cmd::QueueDeq { name: "q".into() }));
        assert_eq!(
            parse_line("OPUT o 3 30").unwrap(),
            Line::Data(Cmd::OrdPut { name: "o".into(), key: 3, value: 30 })
        );
        assert_eq!(
            parse_line("OGET o 3").unwrap(),
            Line::Data(Cmd::OrdGet { name: "o".into(), key: 3 })
        );
        assert_eq!(
            parse_line("ODEL o 3").unwrap(),
            Line::Data(Cmd::OrdDel { name: "o".into(), key: 3 })
        );
        assert_eq!(
            parse_line("SCAN o 0 10").unwrap(),
            Line::Data(Cmd::OrdScan { name: "o".into(), lo: 0, hi: 10 })
        );
        assert_eq!(
            parse_line("SCAN o 4 4").unwrap(),
            Line::Data(Cmd::OrdScan { name: "o".into(), lo: 4, hi: 4 })
        );
        assert_eq!(parse_line("MULTI").unwrap(), Line::Multi);
        assert_eq!(parse_line("EXEC").unwrap(), Line::Exec);
        assert_eq!(parse_line("DISCARD").unwrap(), Line::Discard);
        assert_eq!(parse_line("STATS").unwrap(), Line::Stats);
        assert_eq!(parse_line("TRACE START").unwrap(), Line::Trace(TraceCmd::Start(None)));
        assert_eq!(parse_line("TRACE START 64").unwrap(), Line::Trace(TraceCmd::Start(Some(64))));
        assert_eq!(parse_line("TRACE STOP").unwrap(), Line::Trace(TraceCmd::Stop));
        assert_eq!(parse_line("TRACE DUMP").unwrap(), Line::Trace(TraceCmd::Dump));
        assert_eq!(parse_line("SHUTDOWN").unwrap(), Line::Shutdown);
        assert_eq!(parse_line("QUIT").unwrap(), Line::Quit);
    }

    #[test]
    fn rejects_malformed_lines() {
        for bad in [
            "",
            "FROB m 1",
            "PUT m 1",
            "PUT m x 2",
            "PUT m 1 2 3",
            "GET",
            "GET bad!name 1",
            "INC hits 0",
            "INC hits 99999999",
            "PING extra",
            "DEQ",
            "TRACE",
            "TRACE FROB",
            "TRACE START x",
            "TRACE DUMP extra",
            "OPUT o 1",
            "OGET o",
            "ODEL o x",
            "SCAN o 1",
            "SCAN o 9 3",
            "SCAN o 1 2 3",
        ] {
            assert!(parse_line(bad).is_err(), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn op_names_are_stable() {
        assert_eq!(Cmd::MapGet { name: "m".into(), key: 0 }.op_name(), "get");
        assert_eq!(Cmd::CounterInc { name: "c".into(), delta: 1 }.op_name(), "inc");
        assert_eq!(Cmd::OrdScan { name: "o".into(), lo: 0, hi: 4 }.op_name(), "scan");
    }
}
