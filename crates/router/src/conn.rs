//! Socket-level tuning of the router's backend connections.
//!
//! Every backend's traffic rides one shared `pfr-net` [`ClientDriver`]
//! event loop; [`ConnConfig`] is the router-facing subset of its
//! [`ClientConfig`] (the rest keeps the driver's defaults).
//!
//! [`ClientDriver`]: pfr_net::ClientDriver

use pfr_net::ClientConfig;
use std::time::Duration;

/// Socket-level knobs shared by every backend connection.
#[derive(Debug, Clone, Copy)]
pub struct ConnConfig {
    /// TCP connect timeout.
    pub connect_timeout: Duration,
    /// Read/write timeout per protocol exchange.
    pub io_timeout: Duration,
    /// Idle connections kept per backend; excess connections are closed on
    /// release instead of pooled.
    pub max_idle: usize,
}

impl Default for ConnConfig {
    fn default() -> Self {
        ConnConfig {
            connect_timeout: Duration::from_millis(250),
            io_timeout: Duration::from_secs(2),
            max_idle: 8,
        }
    }
}

impl From<ConnConfig> for ClientConfig {
    fn from(conn: ConnConfig) -> ClientConfig {
        ClientConfig {
            connect_timeout: conn.connect_timeout,
            io_timeout: conn.io_timeout,
            max_idle: conn.max_idle,
            ..ClientConfig::default()
        }
    }
}
