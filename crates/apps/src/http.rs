//! Minimal HTTP/1.1 parsing and response building for the Nginx port.

use std::io::Write as _;

use flexos_machine::fault::Fault;

/// A parsed HTTP request line + the headers the server cares about,
/// borrowing method and path from the buffer it was parsed out of.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct HttpRequest<'a> {
    /// Request method (only GET is served).
    pub method: &'a str,
    /// Request path.
    pub path: &'a str,
    /// `Connection: keep-alive`?
    pub keep_alive: bool,
    /// Number of header lines seen (drives parse-cost accounting).
    pub header_count: u32,
}

/// Parses one HTTP request if a full `\r\n\r\n`-terminated head is
/// buffered; returns the request and bytes consumed.
///
/// # Errors
///
/// [`Fault::InvalidConfig`] on malformed request lines.
pub(crate) fn parse_request(buf: &[u8]) -> Result<Option<(HttpRequest<'_>, usize)>, Fault> {
    // One pass over the lines, split at every CRLF: the head ends at the
    // first empty line after the request line (a CRLF right after a CRLF,
    // i.e. the first `\r\n\r\n`). Nothing is judged before the head is
    // complete, so an incomplete head is `None` whatever it holds.
    let Some(request_end) = find_crlf(buf, 0) else {
        return Ok(None);
    };
    let mut header_count = 0;
    let mut connection_keep_alive = None;
    let mut line_start = request_end + 2;
    let head_end = loop {
        let Some(line_end) = find_crlf(buf, line_start) else {
            return Ok(None);
        };
        let line = &buf[line_start..line_end];
        if line.is_empty() {
            break line_end + 2;
        }
        header_count += 1;
        if line
            .get(..11)
            .is_some_and(|name| name.eq_ignore_ascii_case(b"connection:"))
        {
            connection_keep_alive = Some(
                line.windows(10)
                    .any(|w| w.eq_ignore_ascii_case(b"keep-alive")),
            );
        }
        line_start = line_end + 2;
    };
    let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| Fault::InvalidConfig {
        reason: "http: non-utf8 request head".to_string(),
    })?;
    let request_line = &head[..request_end];
    let mut parts = request_line.split(' ');
    let (method, path, version) = (
        parts.next().unwrap_or_default(),
        parts.next().unwrap_or_default(),
        parts.next().unwrap_or_default(),
    );
    if method.is_empty() || path.is_empty() || !version.starts_with("HTTP/") {
        return Err(Fault::InvalidConfig {
            reason: format!("http: bad request line `{request_line}`"),
        });
    }
    Ok(Some((
        HttpRequest {
            method,
            path,
            // The last `Connection` header decides; HTTP/1.1 defaults
            // to keep-alive.
            keep_alive: connection_keep_alive.unwrap_or(version == "HTTP/1.1"),
            header_count,
        },
        head_end,
    )))
}

/// Index of the first `\r\n` that starts at or after `from`.
fn find_crlf(buf: &[u8], from: usize) -> Option<usize> {
    let mut at = from;
    loop {
        let lf = at + buf.get(at..)?.iter().position(|&b| b == b'\n')?;
        if lf > from && buf[lf - 1] == b'\r' {
            return Some(lf - 1);
        }
        at = lf + 1;
    }
}

/// Builds a `200 OK` response head for a body of `content_length` bytes.
pub fn response_head(content_length: usize, keep_alive: bool) -> Vec<u8> {
    let mut head = Vec::new();
    write_response_head(&mut head, content_length, keep_alive);
    head
}

/// Appends the `200 OK` response head for a body of `content_length`
/// bytes to `out` (a server's reused buffer: no allocation once it has
/// grown to a head's size).
pub(crate) fn write_response_head(out: &mut Vec<u8>, content_length: usize, keep_alive: bool) {
    write!(
        out,
        "HTTP/1.1 200 OK\r\n\
         Server: nginx/1.18.0 (flexos)\r\n\
         Content-Type: text/html\r\n\
         Content-Length: {content_length}\r\n\
         Connection: {}\r\n\r\n",
        if keep_alive { "keep-alive" } else { "close" }
    )
    .expect("writing to a Vec cannot fail");
}

/// Builds a `404 Not Found` response.
pub fn response_404() -> Vec<u8> {
    let mut out = Vec::new();
    write_response_404(&mut out);
    out
}

/// Appends the `404 Not Found` response to `out`.
pub(crate) fn write_response_404(out: &mut Vec<u8>) {
    let body = b"<html><body><h1>404 Not Found</h1></body></html>";
    write!(
        out,
        "HTTP/1.1 404 Not Found\r\nContent-Type: text/html\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )
    .expect("writing to a Vec cannot fail");
    out.extend_from_slice(body);
}

/// The stock nginx welcome page the paper's wrk benchmark fetches — 612
/// bytes, like the real `index.html` nginx ships.
pub fn welcome_page() -> Vec<u8> {
    let mut body = String::from(
        "<!DOCTYPE html>\n<html>\n<head>\n<title>Welcome to nginx!</title>\n<style>\n\
         body { width: 35em; margin: 0 auto; font-family: Tahoma, Verdana, Arial, sans-serif; }\n\
         </style>\n</head>\n<body>\n<h1>Welcome to nginx!</h1>\n\
         <p>If you see this page, the nginx web server is successfully installed and\n\
         working. Further configuration is required.</p>\n\n\
         <p>For online documentation and support please refer to nginx.org.<br/>\n\
         Commercial support is available at nginx.com.</p>\n\n\
         <p><em>Thank you for using nginx.</em></p>\n</body>\n</html>\n",
    );
    // Pad with a trailing comment to exactly 612 bytes (the size wrk sees).
    while body.len() < 608 {
        body.push(' ');
    }
    body.push_str("<!--");
    body.truncate(612);
    body.into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexos_machine::xorshift64star;

    #[test]
    fn parses_wrk_style_request() {
        let wire = b"GET /index.html HTTP/1.1\r\nHost: localhost\r\nConnection: keep-alive\r\n\r\n";
        let (req, used) = parse_request(wire).unwrap().unwrap();
        assert_eq!(used, wire.len());
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/index.html");
        assert!(req.keep_alive);
        assert_eq!(req.header_count, 2);
    }

    #[test]
    fn connection_header_is_matched_whatever_its_case() {
        let keep_alive = |wire: &[u8]| parse_request(wire).unwrap().unwrap().0.keep_alive;
        assert!(!keep_alive(b"GET / HTTP/1.1\r\nCONNECTION: Close\r\n\r\n"));
        assert!(keep_alive(
            b"GET / HTTP/1.0\r\nconnection: Keep-Alive\r\n\r\n"
        ));
        // Shorter than the header name, and a multi-byte character where
        // the name would end: neither is a Connection header.
        assert!(keep_alive(b"GET / HTTP/1.1\r\nX: y\r\n\r\n"));
        assert!(keep_alive(
            "GET / HTTP/1.1\r\nConnectio\u{e9}: close\r\n\r\n".as_bytes()
        ));
    }

    #[test]
    fn partial_head_waits() {
        let wire = b"GET / HTTP/1.1\r\nHost: x\r\n";
        assert_eq!(parse_request(wire).unwrap(), None);
    }

    #[test]
    fn bad_request_line_rejected() {
        assert!(parse_request(b"BOGUS\r\n\r\n").is_err());
    }

    #[test]
    fn http10_defaults_to_close() {
        let wire = b"GET / HTTP/1.0\r\n\r\n";
        let (req, _) = parse_request(wire).unwrap().unwrap();
        assert!(!req.keep_alive);
    }

    /// The parser this module replaced: `windows(4)` for the head's end,
    /// `str::split("\r\n")` for its lines.
    fn split_reference(buf: &[u8]) -> Result<Option<(HttpRequest<'_>, usize)>, Fault> {
        let head_end = match buf.windows(4).position(|w| w == b"\r\n\r\n") {
            Some(p) => p + 4,
            None => return Ok(None),
        };
        let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| Fault::InvalidConfig {
            reason: "http: non-utf8 request head".to_string(),
        })?;
        let mut lines = head.split("\r\n");
        let request_line = lines.next().unwrap_or_default();
        let mut parts = request_line.split(' ');
        let (method, path, version) = (
            parts.next().unwrap_or_default(),
            parts.next().unwrap_or_default(),
            parts.next().unwrap_or_default(),
        );
        if method.is_empty() || path.is_empty() || !version.starts_with("HTTP/") {
            return Err(Fault::InvalidConfig {
                reason: format!("http: bad request line `{request_line}`"),
            });
        }
        let mut keep_alive = version == "HTTP/1.1";
        let mut header_count = 0;
        for line in lines {
            if line.is_empty() {
                continue;
            }
            header_count += 1;
            let line = line.as_bytes();
            if line
                .get(..11)
                .is_some_and(|name| name.eq_ignore_ascii_case(b"connection:"))
            {
                keep_alive = line
                    .windows(10)
                    .any(|w| w.eq_ignore_ascii_case(b"keep-alive"));
            }
        }
        Ok(Some((
            HttpRequest {
                method,
                path,
                keep_alive,
                header_count,
            },
            head_end,
        )))
    }

    #[test]
    fn byte_scan_matches_the_split_parser_on_seeded_heads() {
        // Pieces a head is spliced from: well-formed parts, every line
        // ending the byte scan must not mistake for CRLF (lone `\r`, lone
        // `\n`, `\r\r\n`), empty lines, and bytes that are not UTF-8.
        const PIECES: &[&[u8]] = &[
            b"GET",
            b" ",
            b"/",
            b"/index.html",
            b"HTTP/1.1",
            b"HTTP/1.0",
            b"\r\n",
            b"\r\n",
            b"\r\n",
            b"\r\n\r\n",
            b"\r",
            b"\n",
            b"\r\r\n",
            b"\n\r",
            b"Host: flexos",
            b"Connection: keep-alive",
            b"CONNECTION: Close",
            b"connection:",
            b"keep-alive",
            b"\xff",
            b"\xc3",
            b"\xc3\xa9",
        ];
        let mut rng = 0x4854_5450_0000_0001u64;
        let mut head = Vec::new();
        let (mut complete, mut errors, mut non_utf8) = (0, 0, 0);
        for case in 0..4000 {
            head.clear();
            if case % 2 == 0 {
                head.extend_from_slice(b"GET /index.html HTTP/1.1\r\n");
            }
            for _ in 0..xorshift64star(&mut rng) % 12 {
                let piece = PIECES[(xorshift64star(&mut rng) % PIECES.len() as u64) as usize];
                head.extend_from_slice(piece);
            }
            if case % 3 != 0 {
                head.extend_from_slice(b"\r\n\r\n");
            }
            for end in 0..=head.len() {
                let prefix = &head[..end];
                let got = parse_request(prefix);
                assert_eq!(got, split_reference(prefix), "{:?}", prefix.escape_ascii());
                complete += usize::from(matches!(got, Ok(Some(_))));
                errors += usize::from(got.is_err());
                non_utf8 += usize::from(matches!(
                    &got,
                    Err(Fault::InvalidConfig { reason }) if reason.contains("non-utf8")
                ));
            }
        }
        assert!(
            complete > 1000 && errors > 1000 && non_utf8 > 100,
            "{complete} parsed, {errors} refused ({non_utf8} as non-UTF-8)"
        );
    }

    #[test]
    fn welcome_page_is_612_bytes() {
        // Matches the stock nginx index.html the paper's wrk run fetches.
        assert_eq!(welcome_page().len(), 612);
    }

    #[test]
    fn response_head_has_content_length() {
        let head = String::from_utf8(response_head(612, true)).unwrap();
        assert!(head.contains("Content-Length: 612"));
        assert!(head.contains("keep-alive"));
        assert!(head.ends_with("\r\n\r\n"));
    }
}
