//! The hostile-bytes gate: every binary decoder in the workspace, aimed
//! at by one seeded mutation harness.
//!
//! For each blob kind (`blobs::all`) the harness decodes every truncation,
//! a `0xFF` run of width 1/4/8/10 at every offset, random bit flips, and
//! splices with every other kind's blob. Each mutant must
//!
//! * return a [`DecodeError`], or a value that re-encodes to the mutant's
//!   own bytes (no lossy accept);
//! * when accepted, survive further use — a replay, 100 engine events,
//!   100 pool operations — without panicking;
//! * allocate, while decoding, at most `k × max(len, FLOOR)` bytes, with
//!   `k` stated per kind below and measured by the workspace's one
//!   counting allocator (`tests/support/counting_alloc.rs`).
//!
//! Every kind re-encodes the value it restored, the one its consumer
//! would run: an engine checkpoint decodes through `Simulator::restore`
//! into the fixture engine (a valid checkpoint of another topology must
//! be refused there too), a fast-simulation checkpoint through
//! `AttackSim::from_bytes` under the fixture's configuration.

mod blobs;

use dui_blink::fastsim::AttackSim;
use dui_blink::selector::FlowSelector;
use dui_netsim::prelude::*;
use dui_replay::{Recording, ReplaySubject, Replayer};
use dui_stats::digest::StateDigest;
use dui_stats::propcheck::{self, Config, PropError};
use dui_stats::wire::{Encoder, ErrorKind, Reader, Sink, Writer};
use dui_stats::Rng;
use dui_tcp::{FlowKind, FlowPool, TcpHost, TcpSenderConfig};

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

#[global_allocator]
static ALLOCATOR: counting_alloc::Counting = counting_alloc::Counting;

// ---------------------------------------------------------------------------
// Blob kinds
// ---------------------------------------------------------------------------

/// Inputs shorter than this are held to the bound of a `FLOOR`-byte one
/// (a decoder's fixed-size scratch does not scale down with its input).
const FLOOR: usize = 64;

#[derive(Clone, Copy, PartialEq, Debug)]
enum Kind {
    DuirFastsim,
    DuirEngine,
    Engine,
    FastsimSnapshot,
    TcpHost,
    FlowPool,
    SinkHost,
    Router,
}

impl Kind {
    /// The valid blob the mutants of this kind are made from.
    fn blob(self) -> Vec<u8> {
        match self {
            Kind::DuirFastsim => blobs::fastsim_recording().to_bytes(),
            Kind::DuirEngine => blobs::engine_recording().to_bytes(),
            Kind::Engine => blobs::engine_checkpoint(),
            Kind::FastsimSnapshot => blobs::fastsim_snapshot(),
            Kind::TcpHost => blobs::tcp_host_state(),
            Kind::FlowPool => blobs::pool_state(),
            Kind::SinkHost => blobs::sink_state(),
            Kind::Router => blobs::router_state(),
        }
    }

    /// Peak decode allocation allowed per input byte. The driver of each:
    /// `.duir` — a 24-byte `String` per 1-byte name; engine checkpoint —
    /// `Simulator::restore`, staging and committing the decoded state
    /// (worst mutant 8.3); fast-sim snapshot — the configuration's cells,
    /// 72 bytes each (worst mutant 9.0); `TcpHost` — its pool;
    /// `FlowPool` — ~500 bytes of columns per 9-byte vacant slot, doubled
    /// while a column grows; `SinkHost` — a 40-byte map entry per 29-byte
    /// record at the table's 8/7 load factor, rounded up to a power of two.
    fn k(self) -> usize {
        match self {
            Kind::DuirFastsim | Kind::DuirEngine => 32,
            Kind::Engine => 32,
            Kind::FastsimSnapshot => 72,
            Kind::TcpHost | Kind::FlowPool => 128,
            Kind::SinkHost => 8,
            Kind::Router => 1,
        }
    }

    /// Accepted `.duir` mutants are replayed in full; every accepted
    /// mutant of the other kinds is exercised. (The replay of a 12 KiB
    /// recording costs ~1 ms, and four in five `0xFF` runs land in a
    /// digest word, where the decoder rightly accepts them.)
    fn exercise_every(self) -> usize {
        match self {
            Kind::DuirFastsim | Kind::DuirEngine => 8,
            _ => 1,
        }
    }
}

/// A successfully decoded blob.
enum Value {
    Recording(Recording),
    Engine(Box<Simulator>),
    FastSim(Box<AttackSim>),
    Host(Box<TcpHost>),
    Pool(FlowPool),
    Sink(SinkHost),
    Router(RouterLogic),
}

/// Decode `bytes` as `kind`; an engine checkpoint restores into
/// `target`, built before the allocation count starts.
fn decode(
    kind: Kind,
    bytes: &[u8],
    target: Option<Box<Simulator>>,
) -> Result<Value, Box<dyn std::error::Error>> {
    Ok(match kind {
        Kind::DuirFastsim | Kind::DuirEngine => Value::Recording(Recording::from_bytes(bytes)?),
        Kind::Engine => {
            let mut sim = target.expect("an engine to restore into");
            sim.restore(bytes)?;
            Value::Engine(sim)
        }
        Kind::FastsimSnapshot => Value::FastSim(Box::new(AttackSim::from_bytes(
            &blobs::fastsim_cfg(),
            bytes,
        )?)),
        Kind::TcpHost => {
            let mut host = Box::new(TcpHost::new());
            host.load_state(bytes)?;
            Value::Host(host)
        }
        Kind::FlowPool => Value::Pool(FlowPool::from_bytes(bytes)?),
        Kind::SinkHost => {
            let mut sink = SinkHost::new();
            sink.load_state(bytes)?;
            Value::Sink(sink)
        }
        Kind::Router => {
            let mut router = RouterLogic::new();
            router.load_state(bytes)?;
            Value::Router(router)
        }
    })
}

impl Value {
    fn encode(&self) -> Vec<u8> {
        match self {
            Value::Recording(rec) => rec.to_bytes(),
            Value::Engine(sim) => sim.checkpoint().expect("a restored engine checkpoints"),
            Value::FastSim(sim) => sim.walk(true).bytes.expect("nothing refuses").into_bytes(),
            Value::Host(host) => {
                Sink::save(|s| host.encode(s)).expect("a restored host is restorable")
            }
            Value::Pool(pool) => pool.to_bytes().expect("a restored pool is drained"),
            Value::Sink(sink) => Sink::save(|s| sink.encode(s)).expect("sinks checkpoint"),
            Value::Router(router) => {
                Sink::save(|s| router.encode(s)).expect("plain routers checkpoint")
            }
        }
    }

    /// Use the accepted value the way its consumer would. Refusals are
    /// fine; panics fail the test.
    fn exercise(self, kind: Kind) {
        match self {
            Value::Recording(rec) => {
                let fresh = || -> Box<dyn ReplaySubject> {
                    if kind == Kind::DuirFastsim {
                        Box::new(blobs::fastsim_subject())
                    } else {
                        Box::new(blobs::engine_subject())
                    }
                };
                let _ = Replayer::new(&rec).verify(fresh().as_mut());
                for idx in 0..rec.checkpoints.len() {
                    let _ = Replayer::new(&rec).resume_from(fresh().as_mut(), idx);
                }
            }
            Value::Engine(mut sim) => run_100_events(&mut sim),
            Value::FastSim(mut sim) => {
                for _ in 0..100 {
                    if sim.step().is_none() {
                        break;
                    }
                }
                let _ = sim.walk(true);
            }
            Value::Host(host) => with_logic(NodeId(0), host),
            Value::Sink(sink) => with_logic(NodeId(3), Box::new(sink)),
            Value::Router(router) => with_logic(NodeId(1), Box::new(router)),
            Value::Pool(mut pool) => {
                let key =
                    |i: u16| FlowKey::tcp(Addr::new(10, 9, 0, 1), i, Addr::new(10, 9, 0, 2), 80);
                let now = SimTime::from_secs(1);
                for i in 0..100u16 {
                    let flow = match i % 4 {
                        0 => pool.insert_receiver(key(i), 1),
                        1 => pool.insert_listener(key(i)),
                        _ => pool.insert_sender(key(i), TcpSenderConfig::default(), u32::from(i)),
                    };
                    if i % 4 == 2 {
                        pool.on_start(flow, now).expect("just inserted");
                        let _ = pool.take_out(flow);
                    }
                    if i % 3 == 0 {
                        pool.free(flow).expect("just inserted");
                    }
                }
                let refs: Vec<_> = pool.iter_refs().collect();
                for flow in refs {
                    if pool.kind(flow) == Ok(FlowKind::Sender) {
                        pool.on_tick(flow, now).expect("live");
                    }
                    let _ = (
                        pool.next_event_time(flow),
                        pool.state(flow),
                        pool.take_out(flow),
                    );
                }
                let mut d = StateDigest::new();
                pool.state_digest(&mut d);
                let _ = pool.to_bytes();
            }
        }
    }
}

fn run_100_events(sim: &mut Simulator) {
    let limit = sim.now() + SimDuration::from_secs(2);
    for _ in 0..100 {
        if sim.step_limited(limit).is_none() {
            break;
        }
    }
    let _ = (sim.state_hash(), sim.checkpoint());
}

/// Install a restored node logic in the fixture engine and push traffic
/// at and through it.
fn with_logic(node: NodeId, logic: Box<dyn NodeLogic>) {
    let mut sim = blobs::engine(false);
    sim.set_logic(node, logic);
    let h1 = Addr::new(10, 0, 0, 1);
    for i in 0..20u16 {
        let udp = FlowKey::udp(h1, 3000 + i, Addr::new(10, 0, 1, 1), 53);
        sim.inject(NodeId(0), Packet::udp(udp, 100));
        let tcp = FlowKey::tcp(Addr::new(10, 0, 0, 2), 80, h1, 1000 + i % 3);
        let flags = TcpFlags {
            ack: true,
            ..TcpFlags::default()
        };
        sim.inject(
            NodeId(2),
            Packet::tcp(tcp, 1, 1 + u32::from(i) * 1460, flags, 0),
        );
    }
    sim.inject(
        NodeId(0),
        Packet::probe(h1, Addr::new(10, 0, 1, 1), 9, 1, 1),
    );
    run_100_events(&mut sim);
}

// ---------------------------------------------------------------------------
// The three checks
// ---------------------------------------------------------------------------

/// Decode one mutant and hold it to the harness's three conditions.
fn check(kind: Kind, mutant: &[u8], exercise: bool) -> Result<bool, String> {
    let target = (kind == Kind::Engine).then(|| Box::new(blobs::engine(false)));
    let (decoded, counts) = counting_alloc::during(|| decode(kind, mutant, target));
    let peak = counts.peak as usize;
    let bound = kind.k() * mutant.len().max(FLOOR);
    if peak > bound {
        return Err(format!(
            "decode held {peak} bytes for a {}-byte input (bound {bound})",
            mutant.len()
        ));
    }
    let Ok(value) = decoded else {
        return Ok(false);
    };
    if value.encode() != mutant {
        return Err("lossy accept: the decoded value re-encodes to different bytes".into());
    }
    if exercise {
        value.exercise(kind);
    }
    Ok(true)
}

fn exhaustive(kind: Kind) {
    let blob = kind.blob();
    assert_eq!(
        check(kind, &blob, true),
        Ok(true),
        "the unmutated blob is accepted"
    );
    if kind == Kind::Engine {
        for foreign in blobs::foreign_engine_checkpoints() {
            let outcome = std::panic::catch_unwind(|| check(kind, &foreign, true));
            assert_eq!(
                outcome.ok(),
                Some(Ok(false)),
                "another topology's checkpoint is refused"
            );
        }
    }
    blobs::exhaustive_mutants(&blob, |family, at, mutant| {
        let exercise = at % kind.exercise_every() == 0;
        let outcome = std::panic::catch_unwind(|| check(kind, mutant, exercise));
        match outcome {
            Ok(Ok(_)) => {}
            Ok(Err(why)) => panic!("{kind:?} {family}@{at}: {why}"),
            Err(_) => panic!("{kind:?} {family}@{at}: panicked (see above)"),
        }
    });
}

fn random(kind: Kind) {
    let blob = kind.blob();
    let others: Vec<Vec<u8>> = blobs::all().into_iter().map(|(_, b)| b).collect();
    let fail = |why| PropError::Fail(why);
    propcheck::check(
        &format!("bit_flips/{kind:?}"),
        &Config::with_cases(512),
        |g| {
            check(kind, &blobs::flipped(g, &blob), true)
                .map(drop)
                .map_err(fail)
        },
    );
    propcheck::check(
        &format!("splices/{kind:?}"),
        &Config::with_cases(512),
        |g| {
            let other = &others[g.usize(0..others.len())];
            check(kind, &blobs::spliced(g, &blob, other), true)
                .map(drop)
                .map_err(fail)
        },
    );
}

/// A valid checkpoint restored into the fixture's shape on another link
/// configuration is refused by its fingerprint before anything is
/// committed; the fixture's own configuration takes it.
#[test]
fn a_checkpoint_of_another_configuration_is_refused() {
    let ckpt = blobs::engine_checkpoint();
    let mut sim = blobs::reshaped_engine();
    let before = sim.state_hash();
    let err = sim.restore(&ckpt).expect_err("another configuration");
    assert_eq!(err.kind, ErrorKind::Config, "{err}");
    assert_eq!(
        sim.state_hash(),
        before,
        "a refused restore commits nothing"
    );
    assert_eq!(blobs::engine(false).restore(&ckpt), Ok(()));
}

/// The fast-simulation fixture with its schedule section rewritten by
/// `edit`, as `(time, flow index)` pairs; every other byte as it was.
fn with_schedule(edit: impl FnOnce(&mut Vec<(u64, u64)>)) -> Vec<u8> {
    let blob = blobs::fastsim_snapshot();
    let mut r = Reader::new(&blob);
    Rng::decode(&mut r, "rng").expect("fixture");
    FlowSelector::decode(blobs::fastsim_cfg().params, &mut r).expect("fixture");
    for _ in 0..r.varint("flow count").expect("fixture") {
        FlowKey::decode(&mut r).expect("fixture");
        r.varint("flow seq").expect("fixture");
        r.opt("flow dies_at", Reader::varint).expect("fixture");
    }
    r.varint("sport cursor").expect("fixture");
    let start = blob.len() - r.remaining();
    let mut entries: Vec<(u64, u64)> = (0..r.varint("schedule length").expect("fixture"))
        .map(|_| {
            (
                r.varint("time").expect("fixture"),
                r.varint("flow").expect("fixture"),
            )
        })
        .collect();
    let end = blob.len() - r.remaining();
    edit(&mut entries);
    let mut w = Writer::new();
    w.raw(&blob[..start]);
    w.seq(&entries, |w, &(t, flow)| {
        w.varint(t);
        w.varint(flow);
    });
    w.raw(&blob[end..]);
    w.into_bytes()
}

/// Checkpoints no run writes are refused, each with its kind: the
/// decoder holds the schedule to the invariant `step` keeps it sorted by
/// and the generator to a state xoshiro256++ can be in.
#[test]
fn fastsim_checkpoints_no_run_reaches_are_refused() {
    let cfg = blobs::fastsim_cfg();
    let interval = cfg.pkt_interval.as_nanos();
    assert_eq!(with_schedule(|_| {}), blobs::fastsim_snapshot());
    let mut zero_rng = blobs::fastsim_snapshot();
    zero_rng[..32].fill(0);
    let mut other_cells = blobs::fastsim_snapshot();
    assert_eq!(other_cells[32], 8, "the cell count follows the rng words");
    other_cells[32] = 9;
    let cases = [
        ("all-zero rng words", zero_rng, ErrorKind::Invalid),
        (
            "two entries swapped",
            with_schedule(|s| s.swap(3, 4)),
            ErrorKind::Invalid,
        ),
        (
            "a flow scheduled twice",
            with_schedule(|s| s[4].1 = s[3].1),
            ErrorKind::Invalid,
        ),
        (
            "a span past one interval",
            with_schedule(|s| {
                let first = s[0].0;
                s.last_mut().expect("14 flows").0 = first + interval + 1;
            }),
            ErrorKind::Invalid,
        ),
        ("another cell count", other_cells, ErrorKind::Config),
    ];
    for (case, bytes, kind) in cases {
        match AttackSim::from_bytes(&cfg, &bytes) {
            Ok(_) => panic!("{case}: accepted"),
            Err(err) => assert_eq!(err.kind, kind, "{case}: {err}"),
        }
    }
}

macro_rules! hostile {
    ($($name:ident => $kind:expr;)*) => {$(
        mod $name {
            use super::*;

            #[test]
            fn truncations_and_ff_runs() {
                exhaustive($kind);
            }

            #[test]
            fn bit_flips_and_splices() {
                random($kind);
            }
        }
    )*};
}

hostile! {
    duir_fastsim => Kind::DuirFastsim;
    duir_engine => Kind::DuirEngine;
    engine_checkpoint => Kind::Engine;
    fastsim_snapshot => Kind::FastsimSnapshot;
    tcp_host => Kind::TcpHost;
    flow_pool => Kind::FlowPool;
    sink_host => Kind::SinkHost;
    router => Kind::Router;
}
