//! Failure injection: the NIC engine must degrade gracefully — never panic,
//! never fabricate features — when the switch event stream is damaged, and
//! the switch must shrug off malformed frames. When a shard worker itself
//! dies, the streaming runtime must report [`NicError::WorkerLost`] within
//! a bounded time: never a hang, never a partial result.

use std::sync::mpsc::{channel, RecvTimeoutError};
use std::time::Duration;

use superfe::net::{Direction, PacketRecord};
use superfe::nic::{EgressVector, FeNic, NicError, SharedStreamingNic, StreamingNic, VectorSink};
use superfe::policy::{compile, dsl, CompiledPolicy};
use superfe::switch::{
    CacheMode, FeSwitch, MgpvConfig, MgpvRecord, NicLoadBalancer, SharedSwitch, SwitchEvent,
    TenantId,
};
use superfe::trafficgen::Workload;

fn multi_level_policy() -> CompiledPolicy {
    compile(
        &dsl::parse(
            "pktstream\n.groupby(socket)\n.reduce(size, [f_sum])\n.collect(socket)\n\
             .groupby(host)\n.reduce(size, [f_sum])\n.collect(host)",
        )
        .expect("parses"),
    )
    .expect("compiles")
}

fn events_for(c: &CompiledPolicy, n: u32) -> Vec<SwitchEvent> {
    let mut sw = FeSwitch::new(c.switch.clone()).expect("deploys");
    let mut events = Vec::new();
    for i in 0..n {
        let p = PacketRecord::tcp(
            u64::from(i) * 1_000,
            100,
            i % 23 + 1,
            1000 + (i % 5) as u16,
            2,
            80,
        );
        events.extend(sw.process(&p));
    }
    events.extend(sw.flush());
    events
}

/// Dropping every FG update leaves all records unresolved at finer levels,
/// counted (not panicking), while the CG level still works.
#[test]
fn dropped_fg_updates_are_counted_not_fatal() {
    let c = multi_level_policy();
    let events = events_for(&c, 1_000);
    let mut nic = FeNic::new(&c, 16_384).expect("engine");
    for e in &events {
        if matches!(e, SwitchEvent::FgUpdate(_)) {
            continue; // inject: control channel loss
        }
        nic.handle(e);
    }
    assert_eq!(nic.stats().records, 1_000);
    assert_eq!(nic.stats().unresolved_fg, 1_000, "every record unresolved");
    let groups = nic.finish();
    // Host (CG) groups still exist; socket groups could not be recovered.
    assert!(groups
        .iter()
        .all(|v| matches!(v.key, superfe::net::GroupKey::Host(_))));
    // Host sums still conserve all bytes.
    let total: f64 = groups.iter().map(|g| g.values[0]).sum();
    assert_eq!(total, 1_000.0 * 100.0);
}

/// Reordering an FG update after its data message loses only the affected
/// records' fine-level placement.
#[test]
fn reordered_fg_update_degrades_gracefully() {
    let c = multi_level_policy();
    let events = events_for(&c, 200);
    // Move all FG updates to the end.
    let (fg, data): (Vec<_>, Vec<_>) = events
        .into_iter()
        .partition(|e| matches!(e, SwitchEvent::FgUpdate(_)));
    let mut nic = FeNic::new(&c, 16_384).expect("engine");
    for e in data.iter().chain(fg.iter()) {
        nic.handle(e);
    }
    assert_eq!(nic.stats().records, 200);
    assert!(nic.stats().unresolved_fg > 0);
    let _ = nic.finish(); // no panic
}

/// Corrupted FG indices (beyond the mirror) are counted as unresolved.
#[test]
fn corrupted_fg_index_is_unresolved() {
    let c = multi_level_policy();
    let events = events_for(&c, 100);
    let mut nic = FeNic::new(&c, 16_384).expect("engine");
    for e in &events {
        match e {
            SwitchEvent::Mgpv(m) => {
                let mut m = m.clone();
                for r in &mut m.records {
                    r.fg_idx = u16::MAX; // inject: bit flip / overflow
                }
                nic.handle(&SwitchEvent::Mgpv(m));
            }
            other => nic.handle(other),
        }
    }
    assert_eq!(nic.stats().unresolved_fg, 100);
}

/// An empty or nonsense MGPV message must not panic the engine.
#[test]
fn degenerate_messages_are_harmless() {
    let c = multi_level_policy();
    let mut nic = FeNic::new(&c, 16).expect("engine");
    let msg = superfe::switch::MgpvMessage {
        cg_key: superfe::net::GroupKey::Host(42),
        hash: 7,
        records: vec![MgpvRecord {
            size: 0,
            tstamp_us: u32::MAX,
            dir_flags: 0xFF,
            fg_idx: 3,
        }],
        cause: superfe::switch::EvictionCause::Flush,
    };
    nic.handle(&SwitchEvent::Mgpv(msg));
    let _ = nic.finish();
    assert_eq!(nic.stats().records, 1);
}

/// Malformed frames are rejected by the switch parser without corrupting
/// the cache (well-formed traffic before/after is unaffected).
#[test]
fn malformed_frames_do_not_corrupt_switch_state() {
    let c = compile(
        &dsl::parse("pktstream\n.groupby(flow)\n.reduce(size, [f_sum])\n.collect(flow)")
            .expect("parses"),
    )
    .expect("compiles");
    let mut sw = FeSwitch::new(c.switch).expect("deploys");
    let good = PacketRecord::tcp(1, 300, 1, 1, 2, 2);
    let frame = superfe::net::wire::build_frame(&good);

    sw.process_frame(&frame, 1, Direction::Ingress)
        .expect("good frame");
    for garbage in [&[][..], &[0u8; 10][..], &frame[..20]] {
        assert!(sw.process_frame(garbage, 2, Direction::Ingress).is_err());
    }
    // Truncate mid-IP header.
    let mut bad_version = frame.clone();
    bad_version[14] = 0x05;
    assert!(sw
        .process_frame(&bad_version, 3, Direction::Ingress)
        .is_err());

    sw.process_frame(&frame, 4, Direction::Ingress)
        .expect("still healthy");
    assert_eq!(sw.stats().pkts_in, 2, "only parsed frames are counted");
    assert_eq!(sw.cache_stats().resident_records, 2);
}

/// Splitting the stream across NICs with the load balancer and merging the
/// outputs gives exactly the monolithic result.
#[test]
fn load_balanced_nics_match_single_nic() {
    let c = multi_level_policy();
    let trace = Workload::campus().packets(10_000).seed(31).generate();
    let mut sw = FeSwitch::new(c.switch.clone()).expect("deploys");
    let mut events = Vec::new();
    for p in &trace.records {
        events.extend(sw.process(p));
    }
    events.extend(sw.flush());

    // Monolithic.
    let mut single = FeNic::new(&c, 16_384).expect("engine");
    for e in &events {
        single.handle(e);
    }
    let mut expected = single.finish();

    // Balanced across 3 NICs.
    let mut lb = NicLoadBalancer::new(3);
    let streams = lb.demux(&events);
    let mut merged = Vec::new();
    for stream in streams {
        let mut nic = FeNic::new(&c, 16_384).expect("engine");
        for e in stream {
            nic.handle(e);
        }
        merged.extend(nic.finish());
    }

    let key = |v: &superfe::nic::FeatureVector| format!("{:?}", v.key);
    expected.sort_by_key(key);
    merged.sort_by_key(key);
    assert_eq!(expected, merged);
}

/// How long a run that lost a worker may take to report it.
const WORKER_LOSS_DEADLINE: Duration = Duration::from_secs(10);

/// A sink whose first vector kills the shard worker that owns it.
struct PanickingSink;

impl VectorSink for PanickingSink {
    fn emit(&mut self, _: EgressVector) {
        panic!("injected sink fault");
    }
}

/// A sink that drops every vector.
struct QuietSink;

impl VectorSink for QuietSink {
    fn emit(&mut self, _: EgressVector) {}
}

/// Runs `scenario` on its own thread while the test thread watches it as a
/// watchdog: the scenario's result must arrive within
/// [`WORKER_LOSS_DEADLINE`].
fn within_deadline<T: Send + 'static>(scenario: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = channel();
    let scenario = std::thread::spawn(move || {
        let _ = tx.send(scenario());
    });
    match rx.recv_timeout(WORKER_LOSS_DEADLINE) {
        Ok(result) => {
            scenario
                .join()
                .expect("the scenario finished after its result");
            result
        }
        Err(RecvTimeoutError::Timeout) => {
            panic!("no result within {WORKER_LOSS_DEADLINE:?}: the runtime hung on a lost worker")
        }
        Err(RecvTimeoutError::Disconnected) => panic!("the scenario itself panicked"),
    }
}

fn host_sum_policy(collect: &str) -> CompiledPolicy {
    let src = format!("pktstream\n.groupby(host)\n.reduce(size, [f_sum])\n.collect({collect})");
    compile(&dsl::parse(&src).expect("parses")).expect("compiles")
}

/// A sink that panics on shard 0 kills that worker. Whether the panic hits
/// mid-stream (per-packet vectors egress per frame) or at end of stream
/// (group vectors egress on finish), every failed push and the final
/// `finish` report the lost worker.
#[test]
fn panicking_sink_makes_streaming_finish_report_worker_lost() {
    for collect in ["host", "pkt"] {
        let c = host_sum_policy(collect);
        let events = events_for(&c, 2_000);
        let (push_errors, finished) = within_deadline(move || {
            let sinks: Vec<Box<dyn VectorSink>> =
                vec![Box::new(PanickingSink), Box::new(QuietSink)];
            let mut nic = StreamingNic::with_sinks(&c, 16_384, 2, sinks).expect("executor starts");
            let push_errors: Vec<NicError> = events
                .into_iter()
                .filter_map(|e| nic.push(e).err())
                .collect();
            (push_errors, nic.finish())
        });
        assert!(
            push_errors
                .iter()
                .all(|e| matches!(e, NicError::WorkerLost { .. })),
            "collect({collect}): unexpected push errors {push_errors:?}"
        );
        match finished {
            Err(NicError::WorkerLost { .. }) => {}
            Err(e) => panic!("collect({collect}): finish failed with {e}, not a lost worker"),
            Ok(out) => panic!(
                "collect({collect}): finish returned a partial Ok with {} group vectors",
                out.group_vectors.len()
            ),
        }
    }
}

/// A tenant whose sink panics on every shard loses its workers at the
/// detach handshake: its `detach` returns `WorkerLost` instead of waiting
/// for acks that never come, and the plane's `finish` then reports the loss
/// too rather than handing its co-tenant a partial output.
#[test]
fn panicking_sink_makes_tenant_detach_report_worker_lost() {
    let (detached, finished) = within_deadline(|| {
        let quiet = host_sum_policy("host");
        let faulty = compile(
            &dsl::parse(
                "pktstream\n.filter(tcp.exist)\n.groupby(flow)\n.reduce(size, [f_max])\n\
                 .collect(flow)",
            )
            .expect("parses"),
        )
        .expect("compiles");
        let mut sw = SharedSwitch::new();
        for (id, c) in [(TenantId(0), &quiet), (TenantId(1), &faulty)] {
            sw.attach(id, c.switch.clone(), MgpvConfig::default(), CacheMode::Mgpv);
        }
        let mut nic = SharedStreamingNic::new(2);
        nic.attach(TenantId(0), &quiet, 16_384, None)
            .expect("attaches");
        let sinks: Vec<Box<dyn VectorSink>> =
            vec![Box::new(PanickingSink), Box::new(PanickingSink)];
        nic.attach(TenantId(1), &faulty, 16_384, Some(sinks))
            .expect("attaches");
        let mut frame = Vec::new();
        for i in 0..1_000u32 {
            let p = PacketRecord::tcp(u64::from(i) * 1_000, 100, i % 23 + 1, 1000, 2, 80);
            sw.process_into(&p, &mut frame);
            nic.push_all(frame.drain(..))
                .expect("no vector has egressed yet");
        }
        sw.detach_into(TenantId(1), &mut frame);
        nic.push_all(frame.drain(..))
            .expect("no vector has egressed yet");
        let detached = nic.detach(TenantId(1));
        (
            detached.map(|out| out.group_vectors.len()),
            nic.finish().map(|outs| outs.len()),
        )
    });
    assert!(
        matches!(detached, Err(NicError::WorkerLost { .. })),
        "detach of the faulty tenant returned {detached:?}"
    );
    assert!(
        matches!(finished, Err(NicError::WorkerLost { .. })),
        "finish after losing workers returned {finished:?}"
    );
}
