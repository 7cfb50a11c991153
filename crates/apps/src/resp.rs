//! RESP (REdis Serialization Protocol) encoding and decoding.
//!
//! The subset redis-benchmark exercises: arrays of bulk strings for
//! requests; simple strings, errors, integers, and bulk strings for
//! replies.

use flexos_machine::fault::Fault;

/// A parsed RESP request: the argument vector of one command.
///
/// Reusable: [`decode_request_into`] refills an existing request in
/// place, retaining every argument buffer's capacity, so a steady-state
/// parse loop performs zero host allocations.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RespRequest {
    /// Command arguments (`argv[0]` is the command name).
    pub argv: Vec<Vec<u8>>,
}

impl RespRequest {
    /// An empty request to be filled by [`decode_request_into`].
    pub fn new() -> RespRequest {
        RespRequest::default()
    }
}

/// Encodes a request as a RESP array of bulk strings (what
/// redis-benchmark sends).
pub fn encode_request(argv: &[&[u8]]) -> Vec<u8> {
    let mut out = format!("*{}\r\n", argv.len()).into_bytes();
    for arg in argv {
        out.extend_from_slice(format!("${}\r\n", arg.len()).as_bytes());
        out.extend_from_slice(arg);
        out.extend_from_slice(b"\r\n");
    }
    out
}

/// Incremental decode of one RESP request from `buf` into a reusable
/// request: `req`'s argument buffers are refilled in place (capacities
/// retained), so steady-state parsing allocates nothing. Returns the
/// bytes consumed, or `None` if the buffer is incomplete (in which case
/// `req`'s contents are unspecified).
///
/// # Errors
///
/// [`Fault::InvalidConfig`] on protocol violations (bad type byte,
/// non-numeric lengths).
pub fn decode_request_into(buf: &[u8], req: &mut RespRequest) -> Result<Option<usize>, Fault> {
    let bad = |what: &str| Fault::InvalidConfig {
        reason: format!("RESP protocol error: {what}"),
    };
    let mut pos = 0usize;
    let line = match read_line(buf, pos) {
        Some(l) => l,
        None => return Ok(None),
    };
    if buf[pos] != b'*' {
        return Err(bad("expected array"));
    }
    let argc: usize = parse_int(&buf[pos + 1..line.0]).ok_or_else(|| bad("bad array length"))?;
    pos = line.1;
    req.argv.truncate(argc);
    for i in 0..argc {
        let line = match read_line(buf, pos) {
            Some(l) => l,
            None => return Ok(None),
        };
        if buf[pos] != b'$' {
            return Err(bad("expected bulk string"));
        }
        let len: usize = parse_int(&buf[pos + 1..line.0]).ok_or_else(|| bad("bad bulk length"))?;
        pos = line.1;
        if buf.len() < pos + len + 2 {
            return Ok(None);
        }
        if req.argv.len() <= i {
            req.argv.push(Vec::with_capacity(len));
        }
        let arg = &mut req.argv[i];
        arg.clear();
        arg.extend_from_slice(&buf[pos..pos + len]);
        if &buf[pos + len..pos + len + 2] != b"\r\n" {
            return Err(bad("bulk string not CRLF-terminated"));
        }
        pos += len + 2;
    }
    Ok(Some(pos))
}

fn read_line(buf: &[u8], from: usize) -> Option<(usize, usize)> {
    // Returns (index of '\r', index after '\n').
    let mut at = from;
    loop {
        let rel = buf[at..].iter().position(|&b| b == b'\r')?;
        let cr = at + rel;
        match buf.get(cr + 1) {
            Some(b'\n') => return Some((cr, cr + 2)),
            Some(_) => at = cr + 1,
            None => return None,
        }
    }
}

fn parse_int(digits: &[u8]) -> Option<usize> {
    // Manual digit fold — str::parse's UTF-8 validation costs more than
    // the 1-3 digit fields RESP carries.
    if digits.is_empty() {
        return None;
    }
    let mut value = 0usize;
    for &b in digits {
        if !b.is_ascii_digit() {
            return None;
        }
        value = value.checked_mul(10)?.checked_add(usize::from(b - b'0'))?;
    }
    Some(value)
}

/// `:n\r\n`.
pub(crate) fn int_reply(n: i64) -> Vec<u8> {
    format!(":{n}\r\n").into_bytes()
}

/// `-ERR msg\r\n`.
pub(crate) fn error_reply(msg: &str) -> Vec<u8> {
    format!("-ERR {msg}\r\n").into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_roundtrip() {
        let wire = encode_request(&[b"SET", b"key:1", b"value-abc"]);
        let mut req = RespRequest::new();
        let used = decode_request_into(&wire, &mut req).unwrap().unwrap();
        assert_eq!(used, wire.len());
        assert_eq!(
            req.argv,
            vec![b"SET".to_vec(), b"key:1".to_vec(), b"value-abc".to_vec()]
        );
    }

    #[test]
    fn partial_input_asks_for_more() {
        let wire = encode_request(&[b"GET", b"key"]);
        let mut req = RespRequest::new();
        for cut in 1..wire.len() {
            assert_eq!(
                decode_request_into(&wire[..cut], &mut req).unwrap(),
                None,
                "cut at {cut} must be incomplete"
            );
        }
    }

    #[test]
    fn pipelined_requests_consume_exactly_one() {
        let mut wire = encode_request(&[b"GET", b"a"]);
        let second = encode_request(&[b"GET", b"b"]);
        wire.extend_from_slice(&second);
        let mut req = RespRequest::new();
        let used = decode_request_into(&wire, &mut req).unwrap().unwrap();
        assert_eq!(req.argv[1], b"a");
        decode_request_into(&wire[used..], &mut req)
            .unwrap()
            .unwrap();
        assert_eq!(req.argv[1], b"b");
    }

    #[test]
    fn decode_into_reuses_buffers() {
        let mut req = RespRequest::new();
        let first = encode_request(&[b"SET", b"key", b"a-rather-long-value"]);
        assert!(decode_request_into(&first, &mut req).unwrap().is_some());
        assert_eq!(req.argv.len(), 3);
        // A second, smaller request refills the same buffers in place.
        let second = encode_request(&[b"GET", b"key"]);
        let used = decode_request_into(&second, &mut req).unwrap().unwrap();
        assert_eq!(used, second.len());
        assert_eq!(req.argv, vec![b"GET".to_vec(), b"key".to_vec()]);
    }

    #[test]
    fn garbage_rejected() {
        let mut req = RespRequest::new();
        assert!(decode_request_into(b"!3\r\nxx\r\n", &mut req).is_err());
        assert!(decode_request_into(b"*x\r\n", &mut req).is_err());
    }

    #[test]
    fn reply_encoders() {
        assert_eq!(int_reply(42), b":42\r\n");
        assert!(error_reply("unknown command").starts_with(b"-ERR"));
    }
}
