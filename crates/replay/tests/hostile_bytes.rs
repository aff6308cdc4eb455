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
//!   `k` stated per kind below and measured by the counting allocator
//!   local to this test binary.

mod blobs;

use dui_blink::fastsim::AttackSimSnapshot;
use dui_netsim::prelude::*;
use dui_netsim::sim::EngineCheckpoint;
use dui_replay::record::{
    attack_sim_snapshot_from_bytes, attack_sim_snapshot_to_bytes, engine_checkpoint_from_bytes,
    engine_checkpoint_to_bytes,
};
use dui_replay::{Recording, ReplaySubject, Replayer};
use dui_stats::digest::StateDigest;
use dui_stats::propcheck::{self, Config, PropError};
use dui_stats::wire::DecodeError;
use dui_tcp::{FlowKind, FlowPool, TcpHost, TcpSenderConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

// ---------------------------------------------------------------------------
// Counting allocator
// ---------------------------------------------------------------------------

thread_local! {
    static LIVE: Cell<usize> = const { Cell::new(0) };
    static PEAK: Cell<usize> = const { Cell::new(0) };
}

/// Forwards to the system allocator, tracking this thread's live and peak
/// bytes (tests run on parallel threads; one thread's decode must not
/// see another's allocations).
struct Counting;

// SAFETY: every call forwards unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the bookkeeping touches only `Cell<usize>`
// thread-locals with const initializers and no destructor, so it neither
// allocates nor can observe a destroyed value.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's obligations are exactly `System.alloc`'s.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            let _ = LIVE.try_with(|live| {
                live.set(live.get() + layout.size());
                let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
            });
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        // A block may be freed on a thread that did not allocate it.
        let _ = LIVE.try_with(|live| live.set(live.get().saturating_sub(layout.size())));
        // SAFETY: the caller's obligations are exactly `System.dealloc`'s.
        unsafe { System.dealloc(p, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Run `f`, returning its result and the peak bytes this thread held
/// above its level on entry.
fn peak_during<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let base = LIVE.with(Cell::get);
    PEAK.with(|p| p.set(base));
    let out = f();
    (out, PEAK.with(Cell::get).saturating_sub(base))
}

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
    EngineCheckpoint,
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
            Kind::EngineCheckpoint => blobs::engine_checkpoint(),
            Kind::FastsimSnapshot => blobs::fastsim_snapshot(),
            Kind::TcpHost => blobs::tcp_host_state(),
            Kind::FlowPool => blobs::pool_state(),
            Kind::SinkHost => blobs::sink_state(),
            Kind::Router => blobs::router_state(),
        }
    }

    /// Peak decode allocation allowed per input byte. The driver of each:
    /// `.duir` — a 24-byte `String` per 1-byte name; engine checkpoint —
    /// an 88-byte pending event per 4 input bytes; fast-sim snapshot — a
    /// 64-byte `Option<Cell>` per flag byte; `TcpHost` — its pool;
    /// `FlowPool` — ~500 bytes of columns per 9-byte vacant slot, doubled
    /// while a column grows; `SinkHost` — a 40-byte map entry per 29-byte
    /// record at the table's 8/7 load factor, rounded up to a power of two.
    fn k(self) -> usize {
        match self {
            Kind::DuirFastsim | Kind::DuirEngine => 32,
            Kind::EngineCheckpoint => 32,
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
    Engine(EngineCheckpoint),
    FastSim(AttackSimSnapshot),
    Host(Box<TcpHost>),
    Pool(FlowPool),
    Sink(SinkHost),
    Router(RouterLogic),
}

fn decode(kind: Kind, bytes: &[u8]) -> Result<Value, DecodeError> {
    Ok(match kind {
        Kind::DuirFastsim | Kind::DuirEngine => Value::Recording(Recording::from_bytes(bytes)?),
        Kind::EngineCheckpoint => Value::Engine(engine_checkpoint_from_bytes(bytes)?),
        Kind::FastsimSnapshot => Value::FastSim(attack_sim_snapshot_from_bytes(bytes)?),
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
            Value::Engine(ckpt) => engine_checkpoint_to_bytes(ckpt),
            Value::FastSim(snap) => attack_sim_snapshot_to_bytes(snap),
            Value::Host(host) => host.save_state().expect("a restored host is restorable"),
            Value::Pool(pool) => pool.to_bytes().expect("a restored pool is drained"),
            Value::Sink(sink) => sink.save_state().expect("sinks checkpoint"),
            Value::Router(router) => router.save_state().expect("plain routers checkpoint"),
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
            Value::Engine(ckpt) => {
                let mut sim = blobs::engine(false);
                if sim.restore(ckpt).is_ok() {
                    run_100_events(&mut sim);
                }
            }
            Value::FastSim(snap) => {
                let mut subject = blobs::fastsim_subject();
                if subject
                    .load_checkpoint(&attack_sim_snapshot_to_bytes(&snap))
                    .is_ok()
                {
                    for _ in 0..100 {
                        if subject.step().is_none() {
                            break;
                        }
                    }
                    let _ = (subject.state_hash(), subject.save_checkpoint());
                }
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
    let (decoded, peak) = peak_during(|| decode(kind, mutant));
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
    engine_checkpoint => Kind::EngineCheckpoint;
    fastsim_snapshot => Kind::FastsimSnapshot;
    tcp_host => Kind::TcpHost;
    flow_pool => Kind::FlowPool;
    sink_host => Kind::SinkHost;
    router => Kind::Router;
}
