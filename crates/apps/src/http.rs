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
