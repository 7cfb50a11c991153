//! # flexos-net — the lwip-like TCP/IP stack component
//!
//! The heaviest ported component of the paper's Table 1: +542/-275 patch,
//! **23 shared variables** — the network stack touches buffers owned by
//! the application, the libc, and the scheduler, which is exactly why the
//! Figure 6 sweep shows isolating it costs ~11% on Redis while hardening
//! it (KASan on per-byte packet processing) is among the most expensive
//! hardening choices.
//!
//! The stack is a TCP-lite: real segment headers with ones-complement
//! checksums, a three-way handshake, sequence-number tracking, in-order
//! delivery into per-socket receive rings that live in simulated memory,
//! FIN teardown, and MSS segmentation. Importantly for the paper's
//! "isolation for free" observation (§6.1), the stack **never calls the
//! scheduler on the hot path** — blocking semantics live in the libc
//! wrapper — so cutting lwip|uksched apart is cheap while cutting
//! app|uksched is not.

pub mod checksum;
pub mod client;
pub(crate) mod nic;
pub(crate) mod socket;
pub(crate) mod stack;
pub mod tcp;

pub use client::TcpClient;
pub use socket::SocketHandle;
pub use stack::{NetEntries, NetStack};

use flexos_core::prelude::*;

/// The component descriptor for lwip, with the paper's Table 1 porting
/// metadata: 23 shared variables, +542/-275 patch.
pub fn component() -> Component {
    let whitelist_app = &["newlib", "redis", "nginx", "iperf"][..];
    let vars = vec![
        // RX/TX paths shared with libc and applications.
        SharedVar::heap("pbuf_pool", 16384, whitelist_app),
        SharedVar::heap("rx_ring_meta", 512, whitelist_app),
        SharedVar::heap("tx_ring_meta", 512, whitelist_app),
        SharedVar::stat("netif_default", 64, &["newlib"]),
        SharedVar::stat("netif_list", 128, &["newlib"]),
        SharedVar::stat("tcp_active_pcbs", 256, &["newlib"]),
        SharedVar::stat("tcp_listen_pcbs", 128, &["newlib"]),
        SharedVar::stat("tcp_ticks", 8, &["uktime"]),
        SharedVar::heap("tcp_seg_scratch", 2048, &["newlib"]),
        SharedVar::stat("ip_id_counter", 4, &["newlib"]),
        SharedVar::heap("dns_table", 1024, &["newlib"]),
        SharedVar::stat("lwip_stats_proto", 256, &["newlib"]),
        SharedVar::stack("recv_iov_tmp", 64, whitelist_app),
        SharedVar::stack("send_iov_tmp", 64, whitelist_app),
        SharedVar::stack("sockaddr_tmp", 32, whitelist_app),
        SharedVar::heap("socket_table", 2048, whitelist_app),
        SharedVar::stat("errno_lwip", 4, &["newlib"]),
        SharedVar::heap("accept_backlog", 512, &["newlib"]),
        SharedVar::stat("mbox_poll_flag", 4, &["newlib"]),
        SharedVar::heap("checksum_scratch", 256, &["newlib"]),
        SharedVar::stat("link_speed", 8, &["newlib"]),
        SharedVar::stat("mtu_config", 4, &["newlib"]),
        SharedVar::heap("arp_cache", 512, &["newlib"]),
    ];
    debug_assert_eq!(vars.len(), 23, "Table 1: lwip shares 23 variables");
    Component::new("lwip", ComponentKind::Kernel)
        .with_shared_vars(vars)
        .with_entry_points(NetEntries::NAMES)
        .with_patch(542, 275)
}
