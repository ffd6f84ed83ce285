//! The `MULE_FAULT_PLAN` chaos hook through a served `update`: the
//! batch is applied to the resident entry first, so a write that fails
//! after that must evict the entry — no resident may be ahead of disk.
//!
//! A single-`#[test]` binary on purpose, like `chaos_env.rs`: the hook
//! reads a process-wide environment variable, which must not race the
//! other serve batteries running in parallel threads.

use mule_cli::serve::{log_to, ServeConfig, Server};
use mule_cli::wire::Json;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};

fn request(addr: SocketAddr, frame: &str) -> Json {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(frame.as_bytes()).unwrap();
    stream.write_all(b"\n").unwrap();
    let mut line = String::new();
    BufReader::new(stream).read_line(&mut line).unwrap();
    Json::parse(line.trim_end()).unwrap()
}

/// `(count, search_nodes)` of a successful count reply.
fn answer(reply: &Json) -> (Option<u64>, Option<u64>) {
    assert_eq!(reply.get("ok"), Some(&Json::Bool(true)), "{reply:?}");
    (
        reply.get("count").and_then(Json::as_u64),
        reply.get("search_nodes").and_then(Json::as_u64),
    )
}

#[test]
fn write_fault_after_the_resident_apply_evicts_the_entry() {
    let dir = std::env::temp_dir().join(format!("mule-chaos-serve-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    // Two triangles; the update bridges them.
    let edges = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)];
    let mut b = ugraph_core::GraphBuilder::new(6);
    for (u, v) in edges {
        b.add_edge(u, v, 0.9).unwrap();
    }
    let path = dir.join("base.ugq");
    mule::Query::new(&b.build())
        .prepare_base()
        .unwrap()
        .save(&path)
        .unwrap();
    let catalog = path.to_str().unwrap().to_string();
    let server = Server::start(ServeConfig::default(), log_to(Box::new(std::io::sink()))).unwrap();
    let addr = server.addr();
    let count = format!(r#"{{"op":"count","catalog":"{catalog}","alpha":0.5}}"#);
    let stat = format!(r#"{{"op":"stat","catalog":"{catalog}"}}"#);
    let update = format!(r#"{{"op":"update","catalog":"{catalog}","ops":[["insert",2,3,0.8]]}}"#);

    let before = answer(&request(addr, &count));
    assert_eq!(before.0, Some(2));
    let bytes = std::fs::read(&path).unwrap();

    // The append write fails after the batch went into the resident.
    std::env::set_var("MULE_FAULT_PLAN", "fail-at:64");
    let reply = request(addr, &update);
    std::env::remove_var("MULE_FAULT_PLAN");
    assert_eq!(
        reply.get("error").and_then(Json::as_str),
        Some("catalog_error"),
        "{reply:?}"
    );
    assert!(
        reply.render().contains("injected write failure"),
        "{reply:?}"
    );
    assert_eq!(
        std::fs::read(&path).unwrap(),
        bytes,
        "the file is untouched"
    );
    assert_eq!(
        request(addr, &stat).get("resident"),
        Some(&Json::Bool(false)),
        "the entry that took the unwritten batch is evicted"
    );
    assert_eq!(
        answer(&request(addr, &count)),
        before,
        "the next query answers the on-disk state"
    );

    // Without the plan the same batch lands and is served.
    let reply = request(addr, &update);
    assert_eq!(reply.get("ok"), Some(&Json::Bool(true)), "{reply:?}");
    assert_eq!(answer(&request(addr, &count)).0, Some(3));

    request(addr, r#"{"op":"shutdown"}"#);
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}
