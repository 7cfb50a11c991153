//! # flexos-apps — the four ported applications of the evaluation (§6)
//!
//! | App | Paper role | Port metadata (Table 1) |
//! |---|---|---|
//! | [`redis`] | Figure 6 (top), Figure 8: GET throughput over 80 configs | +279/-90, 16 shared vars |
//! | [`nginx`] | Figure 6 (bottom), Figure 7: HTTP throughput over 80 configs | +470/-85, 36 shared vars |
//! | [`sqlite`] | Figure 10: 5000 INSERTs vs Linux/seL4/CubicleOS | +199/-145, 24 shared vars |
//! | [`iperf`] | Figure 9: stream throughput vs recv buffer size | +15/-14, 4 shared vars |
//!
//! Each application really executes its workload against the substrates —
//! RESP parsing into a hash table living in simulated memory, HTTP
//! serving of the static welcome page, SQL through a B-tree pager with a
//! rollback journal on the vfs, a TCP byte stream — so every
//! gate-crossing count the figures depend on is *measured*, not assumed.

pub mod dict;
pub mod http;
pub mod iperf;
pub mod nginx;
pub mod redis;
pub mod resp;
pub mod sqlite;
pub mod workloads;

pub use iperf::IperfServer;
pub use nginx::NginxServer;
pub use redis::RedisServer;
pub use sqlite::Sqlite;

use flexos_core::prelude::*;

flexos_core::entry_points! {
    /// Redis's gate entry points: the fault-injection campaign's health
    /// probe gates into a tenant through `handle`.
    pub struct RedisEntries {
        main: "redis_main",
        handle: "redis_handle",
        cron: "redis_cron",
    }
}

/// Component descriptor for the Redis port (Table 1: +279/-90, 16 shared
/// variables).
pub fn redis_component() -> Component {
    Component::new("redis", ComponentKind::App)
        .with_shared_vars([
            SharedVar::heap("client_query_buf", 16384, &["newlib", "lwip"]),
            SharedVar::heap("client_reply_buf", 16384, &["newlib", "lwip"]),
            SharedVar::heap("server_dict_meta", 1024, &["newlib"]),
            SharedVar::stat("server_config", 512, &["newlib"]),
            SharedVar::stat("server_stats", 256, &["newlib"]),
            SharedVar::heap("obj_shared_integers", 4096, &["newlib"]),
            SharedVar::stack("argv_tmp", 128, &["newlib"]),
            SharedVar::stack("resp_line_tmp", 64, &["newlib"]),
            SharedVar::stat("lru_clock", 8, &["uktime"]),
            SharedVar::heap("db_expires_meta", 512, &["newlib"]),
            SharedVar::stat("unix_time_cached", 8, &["uktime"]),
            SharedVar::heap("aof_buf", 4096, &["vfscore"]),
            SharedVar::stat("dirty_counter", 8, &["newlib"]),
            SharedVar::heap("client_list", 1024, &["newlib", "lwip"]),
            SharedVar::stat("maxmemory_policy", 4, &["newlib"]),
            SharedVar::stack("getrange_tmp", 64, &["newlib"]),
        ])
        .with_entry_points(RedisEntries::NAMES)
        .with_patch(279, 90)
}

/// Component descriptor for the Nginx port (Table 1: +470/-85, 36 shared
/// variables).
pub fn nginx_component() -> Component {
    let wl = &["newlib", "lwip"][..];
    let mut vars = Vec::new();
    // Nginx's pools/buffers/config are heavily shared with the I/O path;
    // the port annotates 36 variables (Table 1).
    for (i, name) in [
        "ngx_cycle",
        "ngx_pool_head",
        "ngx_conf_ctx",
        "ngx_listening",
        "ngx_connections",
        "ngx_event_list",
        "ngx_posted_events",
        "ngx_accept_mutex",
        "ngx_http_headers_in",
        "ngx_http_headers_out",
        "ngx_output_chain",
        "ngx_request_pool",
        "ngx_log_file",
        "ngx_open_file_cache",
        "ngx_hash_keys",
        "ngx_mime_types",
        "ngx_server_conf",
        "ngx_location_tree",
        "ngx_variables",
        "ngx_regex_cache",
        "ngx_resolver_state",
        "ngx_event_timer_rbtree",
        "ngx_process_slot",
        "ngx_channel_fds",
        "ngx_shutdown_flag",
        "ngx_reconfigure_flag",
        "ngx_temp_buf",
        "ngx_chain_free",
        "ngx_busy_bufs",
        "ngx_keepalive_queue",
        "ngx_http_log_vars",
        "ngx_errlog_buf",
        "ngx_sendfile_ctx",
        "ngx_writev_iovs",
        "ngx_recv_buf_meta",
        "ngx_last_modified_cache",
    ]
    .iter()
    .enumerate()
    {
        let size = 64 + (i as u64 % 8) * 32;
        vars.push(if i % 5 == 3 {
            SharedVar::stack(name, size.min(128), wl)
        } else if i % 2 == 0 {
            SharedVar::heap(name, size, wl)
        } else {
            SharedVar::stat(name, size, wl)
        });
    }
    debug_assert_eq!(vars.len(), 36, "Table 1: nginx shares 36 variables");
    Component::new("nginx", ComponentKind::App)
        .with_shared_vars(vars)
        .with_entry_points(&["nginx_main", "nginx_handle", "nginx_event_loop"])
        .with_patch(470, 85)
}

/// Component descriptor for the SQLite port (Table 1: +199/-145, 24
/// shared variables).
pub fn sqlite_component() -> Component {
    let wl = &["newlib", "vfscore"][..];
    let mut vars = Vec::new();
    for (i, name) in [
        "sqlite3_config_ptr",
        "pager_state",
        "pcache_header",
        "wal_index_hdr",
        "journal_hdr_buf",
        "db_handle_list",
        "vfs_registration",
        "mem_methods",
        "mutex_methods",
        "pcache_methods",
        "btree_shared_cache",
        "schema_cache",
        "stmt_journal_buf",
        "lookaside_meta",
        "scratch_meta",
        "page1_cache",
        "temp_space",
        "savepoint_stack",
        "busy_handler_state",
        "collation_list",
        "vdbe_op_array",
        "bind_param_buf",
        "result_set_buf",
        "error_msg_buf",
    ]
    .iter()
    .enumerate()
    {
        let size = 48 + (i as u64 % 6) * 40;
        vars.push(if i % 7 == 5 {
            SharedVar::stack(name, size.min(128), wl)
        } else if i % 2 == 1 {
            SharedVar::heap(name, size, wl)
        } else {
            SharedVar::stat(name, size, wl)
        });
    }
    debug_assert_eq!(vars.len(), 24, "Table 1: SQLite shares 24 variables");
    Component::new("sqlite", ComponentKind::App)
        .with_shared_vars(vars)
        .with_entry_points(&["sqlite_main", "sqlite_exec", "sqlite_step"])
        .with_patch(199, 145)
}

/// Component descriptor for the iPerf port (Table 1: +15/-14, 4 shared
/// variables).
pub fn iperf_component() -> Component {
    Component::new("iperf", ComponentKind::App)
        .with_shared_vars([
            SharedVar::heap("iperf_recv_buf", 16384, &["newlib", "lwip"]),
            SharedVar::stat("iperf_settings", 128, &["newlib"]),
            SharedVar::stat("iperf_stats", 64, &["newlib"]),
            SharedVar::stack("iperf_report_tmp", 64, &["newlib"]),
        ])
        .with_entry_points(&["iperf_main", "iperf_run"])
        .with_patch(15, 14)
}
