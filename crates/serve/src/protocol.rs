//! The td-serve message layer: what goes *inside* a frame.
//!
//! A message is deliberately plain text plus length-prefixed blobs — the
//! artifact-exchange argument (nelli's "text in, text out") applied to a
//! service: every request and response is readable with `xxd`, and MLIR
//! module texts travel as opaque byte blobs so their own newlines never
//! interact with the envelope.
//!
//! # Grammar
//!
//! ```text
//! message := header fields blobs
//! header  := "td-serve/1 " VERB "\n"
//! fields  := ( KEY "=" VALUE "\n" )*        -- no newlines in KEY/VALUE
//! blobs   := ( "#" KEY " " LEN "\n" LEN-bytes "\n" )*
//! ```
//!
//! Fields precede blobs; a line starting with `#` switches the parser to
//! blob mode permanently. Verbs: `SUBMIT`, `RESULT`, `ARTIFACT`, `STATS`,
//! `PING`, `PONG`, `SHUTDOWN`, `BYE`, `ERR` (see [`crate::server`] for
//! which side sends which).

/// The protocol magic + version tag every message starts with.
pub const HEADER: &str = "td-serve/1";

/// Request: run a (schedule, payload) job. Fields: `tenant`, `entry`
/// (optional, default `main`), `txn_mode` (optional, `always`|`never`;
/// overrides the tenant's configured mode — an invalid value is refused
/// with code `bad_txn_mode`). Blobs: `script`, `payload`.
pub const VERB_SUBMIT: &str = "SUBMIT";
/// Response to `SUBMIT`. Fields: `job`, `ok`, `cached` (on success and
/// failure alike), then on success `attempts` and `transforms`. Blob:
/// `module` (success) or `error` (failure).
pub const VERB_RESULT: &str = "RESULT";
/// Request/response: retrieve an artifact by job id. Request fields:
/// `job`, `kind` (`report` | `bisect` | `flight`); response carries the
/// `data` blob.
pub const VERB_ARTIFACT: &str = "ARTIFACT";
/// Request/response: the service counters as a JSON blob (`data`) — the
/// daemon's one counter surface: admission, tenant, cache and disk
/// counters plus the live internal registry under `internal`.
pub const VERB_STATS: &str = "STATS";
/// Liveness probe.
pub const VERB_PING: &str = "PING";
/// Response to [`VERB_PING`].
pub const VERB_PONG: &str = "PONG";
/// Request: drain the pool and exit.
pub const VERB_SHUTDOWN: &str = "SHUTDOWN";
/// Response to [`VERB_SHUTDOWN`], sent after the drain completes.
pub const VERB_BYE: &str = "BYE";
/// Error response; the `reason` field says why.
pub const VERB_ERR: &str = "ERR";

/// A decoded protocol message: verb, ordered scalar fields, ordered blobs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Message {
    /// The verb (one of the `VERB_*` constants for well-formed traffic).
    pub verb: String,
    /// Scalar fields, in encoding order.
    pub fields: Vec<(String, String)>,
    /// Binary sections, in encoding order (MLIR texts, JSON artifacts).
    pub blobs: Vec<(String, Vec<u8>)>,
}

/// Why a message failed to decode.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProtoError {
    /// The first line is not `td-serve/1 <VERB>`.
    BadHeader(String),
    /// A field line has no `=` or an invalid key.
    BadField(String),
    /// A blob header is malformed or its declared length over-runs the
    /// message.
    BadBlob(String),
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::BadHeader(s) => write!(f, "bad header line: {s}"),
            ProtoError::BadField(s) => write!(f, "bad field line: {s}"),
            ProtoError::BadBlob(s) => write!(f, "bad blob section: {s}"),
        }
    }
}

impl std::error::Error for ProtoError {}

impl Message {
    /// An empty message with the given verb.
    pub fn new(verb: impl Into<String>) -> Self {
        Message {
            verb: verb.into(),
            fields: Vec::new(),
            blobs: Vec::new(),
        }
    }

    /// Appends a scalar field (builder-style). Keys and values must not
    /// contain newlines; keys must not contain `=` or start with `#` —
    /// enforced at encode time.
    pub fn field(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.fields.push((key.into(), value.into()));
        self
    }

    /// Appends a blob (builder-style).
    pub fn blob(mut self, key: impl Into<String>, data: impl Into<Vec<u8>>) -> Self {
        self.blobs.push((key.into(), data.into()));
        self
    }

    /// First field with the given key.
    pub fn get_field(&self, key: &str) -> Option<&str> {
        self.fields
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// First blob with the given key.
    pub fn get_blob(&self, key: &str) -> Option<&[u8]> {
        self.blobs
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_slice())
    }

    /// First blob with the given key, as UTF-8 (lossy).
    pub fn get_blob_text(&self, key: &str) -> Option<String> {
        self.get_blob(key)
            .map(|b| String::from_utf8_lossy(b).into_owned())
    }

    /// Encodes into a frame payload. Panics on keys/values that violate
    /// the grammar (a programming error on the sending side, not a peer's
    /// input).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        assert!(
            !self.verb.contains(['\n', ' ']) && !self.verb.is_empty(),
            "verb must be one token"
        );
        out.extend_from_slice(HEADER.as_bytes());
        out.push(b' ');
        out.extend_from_slice(self.verb.as_bytes());
        out.push(b'\n');
        for (key, value) in &self.fields {
            assert!(
                !key.is_empty() && !key.contains(['\n', '=']) && !key.starts_with('#'),
                "invalid field key {key:?}"
            );
            assert!(!value.contains('\n'), "field value must be newline-free");
            out.extend_from_slice(key.as_bytes());
            out.push(b'=');
            out.extend_from_slice(value.as_bytes());
            out.push(b'\n');
        }
        for (key, data) in &self.blobs {
            assert!(
                !key.is_empty() && !key.contains(['\n', ' ']),
                "invalid blob key {key:?}"
            );
            out.push(b'#');
            out.extend_from_slice(key.as_bytes());
            out.push(b' ');
            out.extend_from_slice(data.len().to_string().as_bytes());
            out.push(b'\n');
            out.extend_from_slice(data);
            out.push(b'\n');
        }
        out
    }

    /// Decodes a frame payload.
    ///
    /// # Errors
    /// The specific [`ProtoError`] naming the malformed line or section.
    pub fn decode(bytes: &[u8]) -> Result<Message, ProtoError> {
        let mut pos = 0;
        let header = take_line(bytes, &mut pos)
            .ok_or_else(|| ProtoError::BadHeader("empty message".to_owned()))?;
        let header = std::str::from_utf8(header)
            .map_err(|_| ProtoError::BadHeader("non-UTF-8 header".to_owned()))?;
        let verb = match header.split_once(' ') {
            Some((magic, verb)) if magic == HEADER && !verb.is_empty() => verb.to_owned(),
            _ => return Err(ProtoError::BadHeader(header.to_owned())),
        };
        let mut message = Message::new(verb);
        while pos < bytes.len() {
            if bytes[pos] == b'#' {
                // Blob section: "#key len\n" + len bytes + "\n".
                pos += 1;
                let head = take_line(bytes, &mut pos)
                    .ok_or_else(|| ProtoError::BadBlob("unterminated blob header".to_owned()))?;
                let head = std::str::from_utf8(head)
                    .map_err(|_| ProtoError::BadBlob("non-UTF-8 blob header".to_owned()))?;
                let (key, len) = head
                    .split_once(' ')
                    .ok_or_else(|| ProtoError::BadBlob(head.to_owned()))?;
                let len: usize = len
                    .parse()
                    .map_err(|_| ProtoError::BadBlob(format!("bad blob length in {head:?}")))?;
                if key.is_empty() {
                    return Err(ProtoError::BadBlob("empty blob key".to_owned()));
                }
                let end = pos
                    .checked_add(len)
                    .filter(|&end| end <= bytes.len())
                    .ok_or_else(|| {
                        ProtoError::BadBlob(format!(
                            "blob {key:?} declares {len} byte(s) but only {} remain",
                            bytes.len().saturating_sub(pos)
                        ))
                    })?;
                let data = bytes[pos..end].to_vec();
                pos = end;
                if bytes.get(pos) != Some(&b'\n') {
                    return Err(ProtoError::BadBlob(format!(
                        "blob {key:?} is not newline-terminated"
                    )));
                }
                pos += 1;
                message.blobs.push((key.to_owned(), data));
            } else {
                let line = take_line(bytes, &mut pos)
                    .ok_or_else(|| ProtoError::BadField("unterminated field line".to_owned()))?;
                let line = std::str::from_utf8(line)
                    .map_err(|_| ProtoError::BadField("non-UTF-8 field line".to_owned()))?;
                let (key, value) = line
                    .split_once('=')
                    .ok_or_else(|| ProtoError::BadField(line.to_owned()))?;
                if key.is_empty() {
                    return Err(ProtoError::BadField(line.to_owned()));
                }
                message.fields.push((key.to_owned(), value.to_owned()));
            }
        }
        Ok(message)
    }
}

/// Takes the bytes up to (excluding) the next `\n`, advancing `pos` past
/// it. `None` when no newline remains.
fn take_line<'a>(bytes: &'a [u8], pos: &mut usize) -> Option<&'a [u8]> {
    let rest = &bytes[*pos..];
    let nl = rest.iter().position(|&b| b == b'\n')?;
    let line = &rest[..nl];
    *pos += nl + 1;
    Some(line)
}

/// Shorthand for an [`VERB_ERR`] response.
pub fn err_message(reason: impl Into<String>) -> Message {
    Message::new(VERB_ERR).field("reason", reason.into().replace('\n', " "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_round_trips() {
        let msg = Message::new(VERB_SUBMIT)
            .field("tenant", "alpha")
            .field("entry", "main")
            .blob("script", b"module {\n}\n".to_vec())
            .blob("payload", Vec::new());
        let decoded = Message::decode(&msg.encode()).unwrap();
        assert_eq!(decoded, msg);
        assert_eq!(decoded.get_field("tenant"), Some("alpha"));
        assert_eq!(decoded.get_blob("payload"), Some(&[][..]));
    }

    #[test]
    fn blobs_may_contain_newlines_and_hashes() {
        let data = b"#fake 3\nnot a blob\n\n=\n".to_vec();
        let msg = Message::new(VERB_RESULT).blob("module", data.clone());
        let decoded = Message::decode(&msg.encode()).unwrap();
        assert_eq!(decoded.get_blob("module"), Some(data.as_slice()));
    }

    #[test]
    fn malformed_messages_name_the_offense() {
        assert!(matches!(
            Message::decode(b"td-serve/2 SUBMIT\n"),
            Err(ProtoError::BadHeader(_))
        ));
        assert!(matches!(
            Message::decode(b"td-serve/1 SUBMIT\nnokey\n"),
            Err(ProtoError::BadField(_))
        ));
        assert!(matches!(
            Message::decode(b"td-serve/1 SUBMIT\n#blob 999\nshort\n"),
            Err(ProtoError::BadBlob(_))
        ));
        assert!(matches!(
            Message::decode(b"td-serve/1 SUBMIT\n#blob x\ndata\n"),
            Err(ProtoError::BadBlob(_))
        ));
    }
}
