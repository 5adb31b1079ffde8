//! A deliberately minimal HTTP/1.1 layer over `std::net`.
//!
//! The build environment has no network stack beyond the standard
//! library, so the service speaks just enough HTTP for `curl` and the
//! load client: one request per connection, `Content-Length` bodies only
//! (no chunked encoding, no keep-alive, no TLS), hard caps on header and
//! body sizes so a malicious peer cannot balloon memory. Anything outside
//! that envelope gets a clean 4xx and a closed connection — never a
//! panic, never an unbounded read.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::time::{Duration, Instant};

/// Upper bound on the request head (request line + headers).
const MAX_HEAD_BYTES: usize = 8 * 1024;
/// Upper bound on a request body.
const MAX_BODY_BYTES: usize = 256 * 1024;
/// Per-connection socket timeout: a stalled peer cannot pin a handler
/// thread forever.
const IO_TIMEOUT: Duration = Duration::from_secs(10);
/// After a 4xx refusal, at most this many unread request bytes are
/// drained (and dropped) before the socket closes…
const DISCARD_BYTES: usize = 2 * MAX_BODY_BYTES;
/// …and for at most this long.
const DISCARD_TIMEOUT: Duration = Duration::from_secs(1);

/// One parsed request.
#[derive(Debug)]
pub struct Request {
    /// `GET`, `POST`, … (uppercased by the client already; matched verbatim).
    pub method: String,
    /// The path, query string included (the service uses none).
    pub path: String,
    /// The body, if a `Content-Length` was present.
    pub body: String,
}

/// Read and parse one request from `stream`, enforcing the size caps.
/// Returns `Ok(None)` for a malformed or oversized request *after* writing
/// the 4xx response and draining what is left of the request, so the
/// peer reads the answer — the caller just closes the connection.
pub fn read_request(stream: &mut TcpStream) -> io::Result<Option<Request>> {
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut head = Vec::new();
    loop {
        // Read at most one byte past the cap, so a line that never ends
        // is refused at the cap instead of buffered until the peer stops.
        let start = head.len();
        let room = (MAX_HEAD_BYTES + 1 - start) as u64;
        if reader.by_ref().take(room).read_until(b'\n', &mut head)? == 0 {
            // Peer closed before a full head: nothing to answer.
            return Ok(None);
        }
        if head.len() > MAX_HEAD_BYTES {
            return refuse(stream, &mut reader, 431, "request head too large\n");
        }
        if matches!(&head[start..], b"\r\n" | b"\n") {
            break;
        }
    }
    let (method, path, content_length) = match parse_head(head) {
        Ok(head) => head,
        Err((code, text)) => return refuse(stream, &mut reader, code, text),
    };
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    match String::from_utf8(body) {
        Ok(body) => Ok(Some(Request { method, path, body })),
        Err(_) => refuse(stream, &mut reader, 400, "body must be utf-8\n"),
    }
}

/// Parse a request head read under the caps: the method and path (the
/// request line's first two tokens) and the body length, or the refusal
/// to answer with. Pure, so it is fuzzed on its own.
fn parse_head(head: Vec<u8>) -> Result<(String, String, usize), (u16, &'static str)> {
    let head = String::from_utf8(head).map_err(|_| (400, "request head must be utf-8\n"))?;
    let mut lines = head.lines();
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split_ascii_whitespace();
    let (Some(method), Some(path)) = (parts.next(), parts.next()) else {
        return Err((400, "malformed request line\n"));
    };
    let mut content_length = 0usize;
    for header in lines {
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                match value.trim().parse::<usize>() {
                    Ok(n) if n <= MAX_BODY_BYTES => content_length = n,
                    _ => return Err((413, "body too large\n")),
                }
            }
        }
    }
    Ok((method.to_string(), path.to_string(), content_length))
}

/// Answer a request with a 4xx and end the exchange so the peer reads
/// the answer. Closing a socket with unread input makes the kernel send
/// a reset, which can destroy the response before a client such as
/// `curl` reads it; so the rest of the request is drained first.
fn refuse(
    stream: &mut TcpStream,
    reader: &mut BufReader<TcpStream>,
    code: u16,
    body: &str,
) -> io::Result<Option<Request>> {
    respond(stream, code, body)?;
    // The answer is out; draining only helps it arrive, so a peer that
    // already hung up is not an error.
    let _ = discard_rest(stream, reader);
    Ok(None)
}

/// Half-close our side, then read and drop what the peer still sends
/// until it closes, or until the byte or time cap — so a peer cannot pin
/// the handler.
fn discard_rest(stream: &TcpStream, reader: &mut BufReader<TcpStream>) -> io::Result<()> {
    stream.shutdown(Shutdown::Write)?;
    let deadline = Instant::now() + DISCARD_TIMEOUT;
    let mut left = DISCARD_BYTES;
    let mut buf = [0u8; 8192];
    while left > 0 {
        let remaining = deadline.saturating_duration_since(Instant::now());
        if remaining.is_zero() {
            break;
        }
        stream.set_read_timeout(Some(remaining))?;
        let want = left.min(buf.len());
        match reader.read(&mut buf[..want])? {
            0 => break,
            n => left -= n,
        }
    }
    Ok(())
}

fn status_text(code: u16) -> &'static str {
    match code {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    }
}

/// Write a plain-text response with extra headers (already formatted as
/// `Name: value` lines, no trailing CRLF). Head and body go out in one
/// write, so a process that dies right after a response leaves the peer
/// the whole response or none of it, not a head without its body.
pub fn respond_with(
    stream: &mut TcpStream,
    code: u16,
    extra_headers: &[String],
    body: &str,
) -> io::Result<()> {
    let mut response = format!(
        "HTTP/1.1 {code} {}\r\nContent-Type: text/plain; charset=utf-8\r\nContent-Length: {}\r\nConnection: close\r\n",
        status_text(code),
        body.len()
    );
    for h in extra_headers {
        response.push_str(h);
        response.push_str("\r\n");
    }
    response.push_str("\r\n");
    response.push_str(body);
    stream.write_all(response.as_bytes())?;
    stream.flush()
}

/// Write a plain-text response with no extra headers.
pub fn respond(stream: &mut TcpStream, code: u16, body: &str) -> io::Result<()> {
    respond_with(stream, code, &[], body)
}

/// One-shot client: open a connection to `addr`, send `method path` with
/// `body`, return `(status, body)`. This is what the load client, the CI
/// smoke job, and the integration tests use to talk to the service — the
/// same minimal dialect the server speaks.
pub fn request(addr: &str, method: &str, path: &str, body: &str) -> io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()?;
    let mut reader = BufReader::new(stream);
    let mut status_line = String::new();
    reader.read_line(&mut status_line)?;
    let status: u16 = status_line
        .split_ascii_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("bad status line {status_line:?}"),
            )
        })?;
    let mut content_length = None;
    let mut line = String::new();
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            break;
        }
        if line == "\r\n" || line == "\n" {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse::<usize>().ok();
            }
        }
    }
    let mut body = String::new();
    match content_length {
        Some(n) => {
            let mut bytes = vec![0u8; n];
            reader.read_exact(&mut bytes)?;
            body = String::from_utf8_lossy(&bytes).into_owned();
        }
        None => {
            reader.read_to_string(&mut body)?;
        }
    }
    Ok((status, body))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::thread;

    fn echo_server() -> (String, thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let handle = thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            if let Some(req) = read_request(&mut stream).unwrap() {
                let body = format!("{} {}\n{}", req.method, req.path, req.body);
                respond(&mut stream, 200, &body).unwrap();
            }
        });
        (addr, handle)
    }

    #[test]
    fn request_and_response_round_trip() {
        let (addr, handle) = echo_server();
        let (status, body) = request(&addr, "POST", "/jobs", "plus_scan n=64").unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, "POST /jobs\nplus_scan n=64");
        handle.join().unwrap();
    }

    #[test]
    fn oversized_bodies_are_refused() {
        let (addr, handle) = echo_server();
        let big = "x".repeat(MAX_BODY_BYTES + 1);
        let (status, _) = request(&addr, "POST", "/jobs", &big).unwrap();
        assert_eq!(status, 413);
        handle.join().unwrap();
    }

    /// Send `raw` as the whole request and return the reply's status line.
    fn raw_exchange(raw: &[u8]) -> String {
        let (addr, handle) = echo_server();
        let mut stream = TcpStream::connect(&addr).unwrap();
        stream.write_all(raw).unwrap();
        let mut reply = String::new();
        BufReader::new(stream).read_line(&mut reply).unwrap();
        handle.join().unwrap();
        reply
    }

    #[test]
    fn unterminated_head_lines_are_refused_at_the_cap() {
        let reply = raw_exchange(&[b'a'; 64 * 1024]);
        assert!(reply.contains("431"), "{reply:?}");
    }

    #[test]
    fn non_utf8_heads_get_400() {
        let reply = raw_exchange(b"GET /\xff HTTP/1.1\r\n\r\n");
        assert!(reply.contains("400"), "{reply:?}");
    }

    /// Property tests of [`parse_head`] on untrusted bytes.
    mod fuzz {
        use super::super::{parse_head, MAX_BODY_BYTES};
        use proptest::prelude::*;

        /// Pieces of request heads: methods, paths, header names,
        /// `Content-Length` values on both sides of the cap, separators
        /// and line ends.
        const TEXT: [&str; 21] = [
            "GET",
            "POST",
            "/sweeps",
            "/jobs/1",
            "HTTP/1.1",
            " ",
            "\t",
            "\r",
            "\n",
            "\r\n",
            ":",
            "Content-Length",
            "content-length",
            "Host",
            "0",
            "12",
            "262144",
            "262145",
            "18446744073709551616",
            "-1",
            "\0",
        ];
        /// Bytes that are not UTF-8: a stray byte and two cut sequences.
        const NOT_UTF8: [&[u8]; 3] = [b"\xff", b"\xc3", b"\xe2\x82"];

        /// A soup of [`TEXT`] pieces, UTF-8 by construction.
        fn text() -> impl Strategy<Value = String> {
            prop::collection::vec(0..TEXT.len(), 0..=16)
                .prop_map(|picks| picks.into_iter().map(|i| TEXT[i]).collect())
        }

        /// A soup of pieces, one in eight of them not UTF-8.
        fn soup() -> impl Strategy<Value = Vec<u8>> {
            let piece = prop_oneof![
                7 => (0..TEXT.len()).prop_map(|i| TEXT[i].as_bytes().to_vec()),
                1 => (0..NOT_UTF8.len()).prop_map(|i| NOT_UTF8[i].to_vec()),
            ];
            prop::collection::vec(piece, 0..=32).prop_map(|pieces| pieces.concat())
        }

        /// A head with a well-formed request line and soups for headers,
        /// one of which states `length`.
        fn head_with_length() -> impl Strategy<Value = (Vec<u8>, u64)> {
            let cap = MAX_BODY_BYTES as u64;
            let length = prop_oneof![cap - 2..=cap + 2, 0..=2 * cap, any::<u64>()];
            (text(), text(), length, 0..2usize).prop_map(|(before, after, length, form)| {
                let name = ["Content-Length", "CONTENT-length"][form];
                let head =
                    format!("POST /sweeps HTTP/1.1\r\n{before}\r\n{name}: {length}\r\n{after}");
                (head.into_bytes(), length)
            })
        }

        /// Check what holds of every head, and return the verdict.
        fn check(head: &[u8]) -> Result<(String, String, usize), (u16, &'static str)> {
            let verdict = parse_head(head.to_vec());
            match &verdict {
                Ok((method, path, length)) => {
                    let text = std::str::from_utf8(head).expect("accepted heads are utf-8");
                    let line = text.lines().next().unwrap_or("");
                    let mut tokens = line.split_ascii_whitespace();
                    assert_eq!(tokens.next(), Some(method.as_str()), "{head:?}");
                    assert_eq!(tokens.next(), Some(path.as_str()), "{head:?}");
                    assert!(*length <= MAX_BODY_BYTES, "{head:?}");
                }
                Err((code, _)) => {
                    assert!([400, 413].contains(code), "{head:?} refused {code}");
                    if std::str::from_utf8(head).is_err() {
                        assert_eq!(*code, 400, "{head:?}");
                    }
                }
            }
            verdict
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(2048))]

            #[test]
            fn arbitrary_bytes_never_panic(head in prop::collection::vec(any::<u8>(), 0..=512)) {
                check(&head).ok();
            }

            #[test]
            fn token_soups_never_panic(head in soup()) {
                check(&head).ok();
            }

            #[test]
            fn a_length_above_the_cap_refuses_413((head, length) in head_with_length()) {
                let verdict = check(&head);
                if length > MAX_BODY_BYTES as u64 {
                    prop_assert_eq!(verdict.map_err(|(code, _)| code), Err(413));
                }
            }

            #[test]
            fn a_head_that_is_not_utf8_refuses_400(
                (mut head, _) in head_with_length(),
                at in any::<usize>(),
            ) {
                let at = at % (head.len() + 1);
                head.insert(at, 0xff);
                prop_assert_eq!(check(&head).map_err(|(code, _)| code), Err(400));
            }
        }

        #[test]
        fn the_soups_reach_every_verdict() {
            assert!(check(b"GET /jobs/1 HTTP/1.1\r\nContent-Length: 12\r\n\r\n").is_ok());
            assert_eq!(check(b"GET\r\n\r\n").map_err(|(c, _)| c), Err(400));
            assert_eq!(check(b"GET / \xff\r\n").map_err(|(c, _)| c), Err(400));
            assert_eq!(
                check(b"POST / x\r\ncontent-length:262145\r\n").map_err(|(c, _)| c),
                Err(413)
            );
        }
    }

    #[test]
    fn malformed_request_lines_get_400() {
        let (addr, handle) = echo_server();
        let mut stream = TcpStream::connect(&addr).unwrap();
        stream.write_all(b"NONSENSE\r\n\r\n").unwrap();
        let mut reply = String::new();
        BufReader::new(stream).read_line(&mut reply).unwrap();
        assert!(reply.contains("400"), "{reply}");
        handle.join().unwrap();
    }
}
