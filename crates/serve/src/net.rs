//! Transport: one listener/stream abstraction over TCP and Unix
//! sockets.
//!
//! An address that parses as `host:port` with a numeric port
//! (`127.0.0.1:0`, `[::1]:80`, `localhost:8080`) is TCP; anything else
//! (`.dca-serve.sock`, `./srv/dca.sock`, `/tmp/dca.sock`) is a
//! filesystem socket path. Unix sockets are the default for local
//! serving (no port allocation, filesystem permissions); TCP exists
//! for the tests and for serving across a network namespace.

use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::unix::fs::FileTypeExt;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;

/// Is `addr` a filesystem socket path rather than `host:port`?
pub fn is_unix(addr: &str) -> bool {
    !matches!(
        addr.rsplit_once(':'),
        Some((host, port)) if !host.is_empty() && !host.contains('/') && port.parse::<u16>().is_ok()
    )
}

/// One bidirectional client connection, transport-erased.
pub trait Conn: Read + Write + Send {
    /// An independently-owned handle to the same socket (for the
    /// reader half, and for shutdown handles held by the server).
    fn try_clone_conn(&self) -> io::Result<Box<dyn Conn>>;
    /// Shuts down both directions, unblocking any thread inside a
    /// blocking read on another clone.
    fn shutdown_conn(&self);
}

impl Conn for TcpStream {
    fn try_clone_conn(&self) -> io::Result<Box<dyn Conn>> {
        Ok(Box::new(self.try_clone()?))
    }
    fn shutdown_conn(&self) {
        let _ = self.shutdown(Shutdown::Both);
    }
}

impl Conn for UnixStream {
    fn try_clone_conn(&self) -> io::Result<Box<dyn Conn>> {
        Ok(Box::new(self.try_clone()?))
    }
    fn shutdown_conn(&self) {
        let _ = self.shutdown(Shutdown::Both);
    }
}

/// A bound accept socket. Dropping a Unix listener removes its socket
/// file.
pub enum Listener {
    /// TCP listener.
    Tcp(TcpListener),
    /// Unix-domain listener plus the path to unlink on drop.
    Unix(UnixListener, PathBuf),
}

impl Listener {
    /// Binds `addr`. An existing Unix socket file is probed with a
    /// connect first: if a server answers, binding fails with
    /// "already serving on PATH" rather than stealing a live daemon's
    /// address; only a socket whose connect is refused (a dead
    /// server's leftover) is removed.
    pub fn bind(addr: &str) -> io::Result<Listener> {
        if is_unix(addr) {
            let path = PathBuf::from(addr);
            if let Some(parent) = path.parent() {
                if !parent.as_os_str().is_empty() {
                    std::fs::create_dir_all(parent)?;
                }
            }
            match UnixStream::connect(&path) {
                Ok(_) => {
                    return Err(io::Error::new(
                        io::ErrorKind::AddrInUse,
                        format!("already serving on {addr}"),
                    ))
                }
                Err(e) if e.kind() == io::ErrorKind::ConnectionRefused => {
                    let stale =
                        std::fs::symlink_metadata(&path).is_ok_and(|m| m.file_type().is_socket());
                    if stale {
                        std::fs::remove_file(&path)?;
                    }
                }
                Err(_) => {}
            }
            Ok(Listener::Unix(UnixListener::bind(&path)?, path))
        } else {
            Ok(Listener::Tcp(TcpListener::bind(addr)?))
        }
    }

    /// Accepts one connection.
    pub fn accept(&self) -> io::Result<Box<dyn Conn>> {
        match self {
            Listener::Tcp(l) => {
                let (s, _) = l.accept()?;
                Ok(Box::new(s))
            }
            Listener::Unix(l, _) => {
                let (s, _) = l.accept()?;
                Ok(Box::new(s))
            }
        }
    }

    /// The bound address in connectable form (resolves `:0` TCP ports).
    pub fn local_addr(&self) -> String {
        match self {
            Listener::Tcp(l) => l.local_addr().map(|a| a.to_string()).unwrap_or_default(),
            Listener::Unix(_, p) => p.display().to_string(),
        }
    }
}

impl Drop for Listener {
    fn drop(&mut self) {
        if let Listener::Unix(_, path) = self {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// Connects to a serve address (client side, and the server's own
/// shutdown self-connection that wakes the accept loops).
pub fn connect(addr: &str) -> io::Result<Box<dyn Conn>> {
    if is_unix(addr) {
        Ok(Box::new(UnixStream::connect(addr)?))
    } else {
        Ok(Box::new(TcpStream::connect(addr)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_host_port_with_a_numeric_port_is_tcp() {
        for path in [
            ".dca-serve.sock",
            "./a.sock",
            "/tmp/x.sock",
            "dir/a:80",
            "a:sock",
            ":80",
        ] {
            assert!(is_unix(path), "{path} is a socket path");
        }
        for tcp in ["127.0.0.1:0", "[::1]:80", "localhost:8080"] {
            assert!(!is_unix(tcp), "{tcp} is host:port");
        }
    }

    /// A socket file nobody listens on is a dead server's leftover:
    /// binding over it succeeds. A live listener's path is refused.
    #[test]
    fn bind_replaces_stale_sockets_but_refuses_live_ones() {
        let dir = std::env::temp_dir().join(format!("dca-net-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("s.sock");
        let addr = path.to_str().unwrap();
        // std's listener does not unlink on drop: a stale socket.
        drop(UnixListener::bind(&path).unwrap());
        assert!(path.exists());
        let live = Listener::bind(addr).expect("stale socket is replaced");
        let err = Listener::bind(addr).err().expect("live socket is refused");
        assert_eq!(err.kind(), io::ErrorKind::AddrInUse);
        assert!(err.to_string().contains("already serving on"), "{err}");
        assert!(path.exists(), "the live listener keeps its path");
        drop(live);
        assert!(!path.exists(), "dropping the listener unlinks it");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
