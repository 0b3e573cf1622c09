//! The traced run: a mirror of `CohortRunner::run_batch` built from the
//! same public calls, with a span around every call into a layer.
//!
//! The runner keeps its node state private, so the only way to time its
//! layers without touching the library is to drive the identical call
//! sequence from here. The mirror leaves out what changes no call:
//! alert timestamping, ground-truth harvesting, battery pricing and the
//! recording tap (the traced run is the unrecorded path; the archive
//! layer is timed separately on a real recording). [`Ledger::faithful`]
//! checks the mirror against the untraced report of the same plans, so
//! a mirror that drifts from the runner fails instead of reporting
//! numbers for a different program.

use std::time::{Duration, Instant};
use wbsn::cohort::{CohortReport, CohortRunConfig, SessionPlan};
use wbsn::core::governor::{GovernedMonitor, GovernorConfig};
use wbsn::core::level::{OperatingMode, ProcessingLevel};
use wbsn::core::link::{DownlinkFrame, SessionHandshake, Uplink};
use wbsn::core::monitor::MonitorBuilder;
use wbsn::core::retransmit::{
    DirectiveHandler, RetransmitBuffer, RetransmitConfig, RetransmitEvent,
};
use wbsn::core::Result;
use wbsn::ecg_synth::scenario::{Adversity, Script};
use wbsn::gateway::controller::ControllerConfig;
use wbsn::gateway::gateway::{GatewayConfig, GatewayEvent, GatewayStats};
use wbsn::gateway::{ChannelConfig, DuplexChannel, MatrixCacheStats, ShardedGateway};
use wbsn::platform::NodeModel;

/// The runner's link-pump cadence (seconds of signal per pump).
const PUMP_S: usize = 10;

/// Busy time and work counts of one traced cohort run, per layer.
#[derive(Debug, Default, Clone)]
pub struct Ledger {
    /// Wall time of the whole traced run, gateway start to shutdown.
    pub wall: Duration,
    /// `Script::record` and `Record::interleaved_frames`.
    pub synth: Duration,
    /// `GovernedMonitor::new`/`push_block`/`apply_directive`/`finish`.
    pub node: Duration,
    /// `Uplink` framing, `DownlinkFrame` parsing, `RetransmitBuffer`,
    /// `DirectiveHandler`.
    pub link: Duration,
    /// `DuplexChannel` construction, `set_drop_rate`, `send_all`/`send`.
    pub channel: Duration,
    /// `ShardedGateway::ingest_batch`.
    pub ingest: Duration,
    /// `ShardedGateway::pump_downlink`.
    pub downlink: Duration,
    /// Gateway start/stop, `register`, `attach_reference_at`,
    /// `session_report`, `close_session`, `stats`.
    pub control: Duration,
    /// Duration of every `ingest_batch` call.
    pub ingest_calls: Vec<Duration>,
    /// Synthesized samples (frames × leads).
    pub synth_samples: u64,
    /// Frames pushed through the node pipeline.
    pub node_frames: u64,
    /// Payloads the node pipeline emitted.
    pub node_payloads: u64,
    /// Uplink packets handed to the channel, retransmissions included.
    pub link_packets: u64,
    /// Their wire bytes.
    pub link_wire_bytes: u64,
    /// Packets the retransmit buffers resent.
    pub link_retransmits: u64,
    /// Messages the retransmit buffers abandoned.
    pub link_expired: u64,
    /// NACKed messages no longer buffered.
    pub link_unavailable: u64,
    /// Packets offered to both channel directions.
    pub channel_offered: u64,
    /// Packets the channels dropped.
    pub channel_dropped: u64,
    /// Downlink frames the gateway emitted.
    pub downlink_frames: u64,
    /// Gateway counters at the end of the run.
    pub gateway: GatewayStats,
    /// Matrix-cache counters at the end of the run.
    pub cache: MatrixCacheStats,
    /// Sessions that ended with a `SessionReport`.
    pub sessions_reported: u64,
    /// Summed `SessionReport` link counters: messages, lost,
    /// recovered, ACKs, NACKs, retransmits requested, directives.
    pub link_report: [u64; 7],
    /// Windows reconstructed with a PRD score.
    pub prd_windows: u64,
    /// Lost messages summed from `MessageLost` events.
    pub lost_events: u64,
    /// Node reboots enacted.
    pub reboots: u64,
}

impl Ledger {
    /// Sum of every layer's busy time.
    pub fn busy(&self) -> Duration {
        self.synth
            + self.node
            + self.link
            + self.channel
            + self.ingest
            + self.downlink
            + self.control
    }

    /// The work counts that must repeat exactly for the same plans, at
    /// any worker count.
    pub fn counts(&self) -> [u64; 15] {
        let g = &self.gateway;
        [
            self.synth_samples,
            self.node_frames,
            self.node_payloads,
            self.link_packets,
            self.link_wire_bytes,
            self.link_retransmits,
            self.channel_offered,
            self.channel_dropped,
            self.downlink_frames,
            g.packets,
            g.payloads,
            g.windows_reconstructed,
            g.windows_skipped,
            g.solver_iters,
            self.prd_windows,
        ]
    }

    /// Compares the mirror's counts with the untraced report of the
    /// same plans; returns one line per disagreement.
    pub fn faithful(&self, report: &CohortReport, sessions: usize) -> Vec<String> {
        let l = &report.link;
        let pairs = [
            (
                "sessions with a SessionReport",
                self.sessions_reported,
                sessions as u64,
            ),
            ("link.messages", self.link_report[0], l.messages),
            ("link.lost", self.link_report[1], l.lost),
            ("link.recovered", self.link_report[2], l.recovered),
            ("link.acks_sent", self.link_report[3], l.acks_sent),
            ("link.nacks_sent", self.link_report[4], l.nacks_sent),
            (
                "link.retransmits_requested",
                self.link_report[5],
                l.retransmits_requested,
            ),
            (
                "link.directives_issued",
                self.link_report[6],
                l.directives_issued,
            ),
            ("link.lost_events", self.lost_events, l.lost_events),
            ("link.expired", self.link_expired, l.expired),
            ("link.unavailable", self.link_unavailable, l.unavailable),
            ("prd.windows", self.prd_windows, report.prd.windows),
            (
                "windows_skipped",
                self.gateway.windows_skipped,
                report.windows_skipped,
            ),
            ("reboots", self.reboots, report.reboots),
        ];
        pairs
            .iter()
            .filter(|(_, mirror, live)| mirror != live)
            .map(|(name, mirror, live)| format!("traced {name} = {mirror}, untraced = {live}"))
            .collect()
    }
}

/// Adds the time since `t` to `acc`.
fn close(acc: &mut Duration, t: Instant) {
    *acc += t.elapsed();
}

/// The gateway configuration `CohortRunner` uses for an unrecorded run.
fn gateway_config(cfg: &CohortRunConfig) -> GatewayConfig {
    GatewayConfig {
        reorder_window: 3,
        recovery_window: 12,
        reconstruct_every: cfg.reconstruct_every,
        controller: Some(ControllerConfig::default()),
        tap: false,
        ..GatewayConfig::default()
    }
}

/// Runs `plans` through the traced mirror with `workers` gateway
/// workers.
pub fn mirror(cfg: &CohortRunConfig, plans: &[SessionPlan], workers: usize) -> Result<Ledger> {
    let mut led = Ledger::default();
    let start = Instant::now();
    let t = Instant::now();
    let mut gw = ShardedGateway::new(gateway_config(cfg), workers)?;
    close(&mut led.control, t);
    let mut first = 0usize;
    for batch in plans.chunks(cfg.batch_sessions) {
        run_batch(cfg, &mut gw, batch, first, &mut led)?;
        first += batch.len();
    }
    let t = Instant::now();
    led.gateway = gw.stats()?;
    led.cache = gw.cache_stats();
    drop(gw);
    close(&mut led.control, t);
    led.wall = start.elapsed();
    Ok(led)
}

fn run_batch(
    cfg: &CohortRunConfig,
    gw: &mut ShardedGateway,
    batch: &[SessionPlan],
    first: usize,
    led: &mut Ledger,
) -> Result<()> {
    let mut nodes = Vec::with_capacity(batch.len());
    for (k, plan) in batch.iter().enumerate() {
        nodes.push(Node::new((first + k + 1) as u64, plan, cfg, led)?);
    }
    let hours = batch.iter().map(|p| p.scripts.len()).max().unwrap_or(0);
    for hour in 0..hours {
        for (node, plan) in nodes.iter_mut().zip(batch) {
            if let Some(script) = plan.scripts.get(hour) {
                node.load_segment(script, gw, led)?;
            }
        }
        let pumps = nodes
            .iter()
            .map(|n| n.seg_frames.div_ceil(n.pump_frames()))
            .max()
            .unwrap_or(0);
        for pump in 0..pumps {
            let mut up = Vec::new();
            for node in &mut nodes {
                node.pump_uplink(pump, gw, &mut up, led)?;
            }
            ingest(gw, &up, led)?;
            let t = Instant::now();
            let downlink = gw.pump_downlink()?;
            close(&mut led.downlink, t);
            for (session, frames) in downlink {
                led.downlink_frames += frames.len() as u64;
                let Some(node) = nodes.iter_mut().find(|n| n.session == session) else {
                    continue;
                };
                node.take_downlink(&frames, led)?;
            }
        }
        for node in &mut nodes {
            node.seg = Vec::new();
            node.seg_frames = 0;
        }
    }

    let mut up = Vec::new();
    for node in &mut nodes {
        node.drain(&mut up, led)?;
    }
    ingest(gw, &up, led)?;
    for node in &mut nodes {
        let t = Instant::now();
        let report = gw.session_report(node.session)?;
        let closed = gw.close_session(node.session)?;
        close(&mut led.control, t);
        if let Some(r) = report {
            led.sessions_reported += 1;
            let counts = [
                r.messages,
                r.lost,
                r.recovered,
                r.acks_sent,
                r.nacks_sent,
                r.retransmits_requested,
                r.directives_issued,
            ];
            for (sum, c) in led.link_report.iter_mut().zip(counts) {
                *sum += c;
            }
        }
        if let Some(events) = closed {
            count_events(&events, led);
        }
    }
    for node in &nodes {
        node.finish(led);
    }
    Ok(())
}

/// One `ingest_batch` call, timed per call.
fn ingest(gw: &mut ShardedGateway, up: &[Vec<u8>], led: &mut Ledger) -> Result<()> {
    let t = Instant::now();
    let replies = gw.ingest_batch(up)?;
    let took = t.elapsed();
    led.ingest += took;
    led.ingest_calls.push(took);
    // Transport errors are channel damage; the runner ignores them too.
    for events in replies.into_iter().flatten() {
        count_events(&events, led);
    }
    Ok(())
}

fn count_events(events: &[GatewayEvent], led: &mut Ledger) {
    for ev in events {
        match ev {
            GatewayEvent::WindowReconstructed {
                prd_percent: Some(_),
                ..
            } => led.prd_windows += 1,
            GatewayEvent::MessageLost { count, .. } => led.lost_events += u64::from(*count),
            _ => {}
        }
    }
}

/// One node of a batch: the runner's `NodeState` minus scoring.
struct Node {
    session: u64,
    cs: bool,
    builder: MonitorBuilder,
    gov_cfg: GovernorConfig,
    gm: GovernedMonitor,
    uplink: Uplink,
    buf: RetransmitBuffer,
    directives: DirectiveHandler,
    duplex: DuplexChannel,
    pending_tx: Vec<Vec<u8>>,
    rt_events: Vec<RetransmitEvent>,
    reboots: Vec<f64>,
    next_reboot: usize,
    regimes: Vec<(f64, f64, f64)>,
    seg: Vec<i32>,
    seg_frames: usize,
    seg_base_frames: u64,
    abs_frames: u64,
    window_base_abs: u64,
    fs: u32,
}

impl Node {
    fn new(
        session: u64,
        plan: &SessionPlan,
        cfg: &CohortRunConfig,
        led: &mut Ledger,
    ) -> Result<Node> {
        let p = &plan.profile;
        let mut builder = MonitorBuilder::new().n_leads(p.n_leads);
        let gov_cfg = if p.cs_uplink {
            builder = builder
                .cs_window(cfg.cs_window)
                .cs_compression_ratio(cfg.cs_cr_percent);
            GovernorConfig::pinned(OperatingMode::new(ProcessingLevel::CompressedSingleLead, 1))
        } else {
            GovernorConfig::for_leads(p.n_leads)
        };
        let t = Instant::now();
        let gm = GovernedMonitor::new(builder.clone(), gov_cfg.clone(), NodeModel::default())?;
        close(&mut led.node, t);
        let fs = gm.monitor().config().fs_hz;

        let t = Instant::now();
        let mut uplink = Uplink::new();
        let mut pending_tx = Vec::new();
        let hs = SessionHandshake::for_config(session, gm.monitor().config());
        uplink.open_session(&hs, &mut pending_tx)?;
        let mut rt_events = Vec::new();
        let mut buf = RetransmitBuffer::new(RetransmitConfig {
            ack_timeout_epochs: 6,
            max_backoff_epochs: 12,
            ..RetransmitConfig::default()
        })?;
        buf.record(0, &pending_tx, &mut rt_events);
        close(&mut led.link, t);

        let mut reboots = Vec::new();
        let mut regimes = Vec::new();
        let mut base_s = 0.0;
        for script in &plan.scripts {
            for ta in script.runtime_adversities() {
                match ta.adversity {
                    Adversity::NodeReboot => reboots.push(base_s + ta.start_s),
                    Adversity::ChannelRegime {
                        drop_rate,
                        corrupt_rate,
                    } => {
                        let drop = (drop_rate + corrupt_rate).clamp(0.0, 0.9);
                        regimes.push((
                            base_s + ta.start_s,
                            base_s + ta.start_s + ta.duration_s,
                            drop,
                        ));
                    }
                    _ => {}
                }
            }
            base_s += script.duration_s();
        }
        reboots.sort_by(f64::total_cmp);
        regimes.sort_by(|a, b| a.0.total_cmp(&b.0));

        let t = Instant::now();
        let duplex = DuplexChannel::symmetric(ChannelConfig {
            seed: p
                .seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(0x4C49_4E4B),
            ..ChannelConfig::ideal()
        })?;
        close(&mut led.channel, t);

        Ok(Node {
            session,
            cs: p.cs_uplink,
            builder,
            gov_cfg,
            gm,
            uplink,
            buf,
            directives: DirectiveHandler::new(),
            duplex,
            pending_tx,
            rt_events,
            reboots,
            next_reboot: 0,
            regimes,
            seg: Vec::new(),
            seg_frames: 0,
            seg_base_frames: 0,
            abs_frames: 0,
            window_base_abs: 0,
            fs,
        })
    }

    fn pump_frames(&self) -> usize {
        self.fs as usize * PUMP_S
    }

    fn load_segment(
        &mut self,
        script: &Script,
        gw: &mut ShardedGateway,
        led: &mut Ledger,
    ) -> Result<()> {
        let t = Instant::now();
        let rec = script.record();
        self.seg = rec.interleaved_frames();
        close(&mut led.synth, t);
        led.synth_samples += (rec.n_samples() * rec.n_leads()) as u64;
        self.seg_frames = rec.n_samples();
        self.seg_base_frames = self.abs_frames;
        if self.cs && self.seg_base_frames >= self.window_base_abs {
            let reference: Vec<f64> = rec.lead(0).iter().map(|&v| f64::from(v)).collect();
            let t = Instant::now();
            gw.attach_reference_at(
                self.session,
                0,
                self.seg_base_frames - self.window_base_abs,
                reference,
            )?;
            close(&mut led.control, t);
        }
        Ok(())
    }

    fn pump_uplink(
        &mut self,
        pump: usize,
        gw: &mut ShardedGateway,
        up: &mut Vec<Vec<u8>>,
        led: &mut Ledger,
    ) -> Result<()> {
        let lo = pump * self.pump_frames();
        if lo >= self.seg_frames {
            return Ok(());
        }
        let hi = (lo + self.pump_frames()).min(self.seg_frames);
        let t0 = (self.seg_base_frames + lo as u64) as f64 / f64::from(self.fs);
        let t1 = (self.seg_base_frames + hi as u64) as f64 / f64::from(self.fs);

        while self.next_reboot < self.reboots.len() && self.reboots[self.next_reboot] <= t0 {
            self.reboot(gw, led)?;
            self.next_reboot += 1;
        }

        let mut drop = 0.0f64;
        for &(s, e, d) in &self.regimes {
            if s < t1 && t0 < e {
                drop = drop.max(d);
            }
        }
        let t = Instant::now();
        self.duplex.up().set_drop_rate(drop)?;
        self.duplex.down().set_drop_rate(drop)?;
        close(&mut led.channel, t);

        let n_leads = self.gm.monitor().config().n_leads;
        let block = &self.seg[lo * n_leads..hi * n_leads];
        let t = Instant::now();
        let payloads = self.gm.push_block(block, hi - lo)?;
        close(&mut led.node, t);
        led.node_frames += (hi - lo) as u64;
        led.node_payloads += payloads.len() as u64;
        self.abs_frames += (hi - lo) as u64;

        let t = Instant::now();
        let mut tx = std::mem::take(&mut self.pending_tx);
        for payload in &payloads {
            let mut pk = Vec::new();
            let seq = self.uplink.frame_one(self.session, payload, &mut pk)?;
            self.buf.record(seq, &pk, &mut self.rt_events);
            tx.extend(pk);
        }
        self.buf.tick(&mut tx, &mut self.rt_events);
        close(&mut led.link, t);
        self.send_up(tx, up, led);
        Ok(())
    }

    /// Hands `tx` to the uplink channel, counting what goes on the wire.
    fn send_up(&mut self, tx: Vec<Vec<u8>>, up: &mut Vec<Vec<u8>>, led: &mut Ledger) {
        led.link_packets += tx.len() as u64;
        led.link_wire_bytes += tx.iter().map(|p| p.len() as u64).sum::<u64>();
        let t = Instant::now();
        up.extend(self.duplex.up().send_all(tx));
        close(&mut led.channel, t);
    }

    fn take_downlink(&mut self, frames: &[Vec<u8>], led: &mut Ledger) -> Result<()> {
        for wire in frames {
            let t = Instant::now();
            let delivered = self.duplex.down().send(wire.clone());
            close(&mut led.channel, t);
            for bytes in delivered {
                let t = Instant::now();
                let action = match DownlinkFrame::from_wire(&bytes) {
                    Ok(frame) => {
                        if self
                            .buf
                            .on_frame(&frame, &mut self.pending_tx, &mut self.rt_events)
                        {
                            None
                        } else if let DownlinkFrame::Directive(df) = frame {
                            self.directives.accept(&df)
                        } else {
                            None
                        }
                    }
                    Err(_) => None,
                };
                close(&mut led.link, t);
                let Some(action) = action else {
                    continue;
                };
                if !self.cs {
                    continue;
                }
                let t = Instant::now();
                let flushed = self.gm.apply_directive(action)?;
                close(&mut led.node, t);
                led.node_payloads += flushed.len() as u64;
                let t = Instant::now();
                for payload in &flushed {
                    let mut pk = Vec::new();
                    let seq = self.uplink.frame_one(self.session, payload, &mut pk)?;
                    self.buf.record(seq, &pk, &mut self.rt_events);
                    self.pending_tx.extend(pk);
                }
                let hs = SessionHandshake::for_config(self.session, self.gm.monitor().config());
                let mut pk = Vec::new();
                let seq = self.uplink.announce_handshake(&hs, &mut pk)?;
                self.buf.record(seq, &pk, &mut self.rt_events);
                self.pending_tx.extend(pk);
                close(&mut led.link, t);
            }
        }
        Ok(())
    }

    fn reboot(&mut self, gw: &mut ShardedGateway, led: &mut Ledger) -> Result<()> {
        let t = Instant::now();
        self.gm = GovernedMonitor::new(
            self.builder.clone(),
            self.gov_cfg.clone(),
            NodeModel::default(),
        )?;
        close(&mut led.node, t);
        let t = Instant::now();
        self.uplink = Uplink::new();
        self.buf.reset();
        self.directives.reset();
        self.pending_tx.clear();
        close(&mut led.link, t);
        let hs = SessionHandshake::for_config(self.session, self.gm.monitor().config());
        let t = Instant::now();
        gw.register(hs)?;
        close(&mut led.control, t);
        let t = Instant::now();
        self.uplink.open_session(&hs, &mut self.pending_tx)?;
        self.buf.record(0, &self.pending_tx, &mut self.rt_events);
        close(&mut led.link, t);
        if self.cs {
            let t = Instant::now();
            gw.attach_reference_at(self.session, 0, 0, Vec::new())?;
            close(&mut led.control, t);
        }
        self.window_base_abs = self.abs_frames;
        led.reboots += 1;
        Ok(())
    }

    fn drain(&mut self, up: &mut Vec<Vec<u8>>, led: &mut Ledger) -> Result<()> {
        let t = Instant::now();
        self.duplex.up().set_drop_rate(0.0)?;
        self.duplex.down().set_drop_rate(0.0)?;
        close(&mut led.channel, t);
        let t = Instant::now();
        let payloads = self.gm.finish()?;
        close(&mut led.node, t);
        led.node_payloads += payloads.len() as u64;
        let t = Instant::now();
        let mut tx = std::mem::take(&mut self.pending_tx);
        for payload in &payloads {
            let mut pk = Vec::new();
            let seq = self.uplink.frame_one(self.session, payload, &mut pk)?;
            self.buf.record(seq, &pk, &mut self.rt_events);
            tx.extend(pk);
        }
        close(&mut led.link, t);
        self.send_up(tx, up, led);
        Ok(())
    }

    /// Folds the node's end-of-session counters into the ledger.
    fn finish(&self, led: &mut Ledger) {
        for ev in &self.rt_events {
            match ev {
                RetransmitEvent::Expired { .. } => led.link_expired += 1,
                RetransmitEvent::Unavailable { .. } => led.link_unavailable += 1,
            }
        }
        led.link_retransmits += self.buf.stats().resent_packets;
        for s in [self.duplex.up_stats(), self.duplex.down_stats()] {
            led.channel_offered += s.offered;
            led.channel_dropped += s.dropped;
        }
    }
}
