//! The RPC host: a functional Sprite-style RPC endpoint.
//!
//! The client side of XRPCTEST performs a call into MSELECT; the call
//! propagates down to the LANCE driver; the calling thread blocks in
//! CHAN; the reply interrupt propagates up to CHAN, which signals the
//! thread; the awakened thread unwinds back to XRPCTEST (§2.1).

use std::collections::HashMap;

use kcode::Recorder;
use netsim::frame::{EtherType, Frame, MacAddr};
use netsim::Ns;
use xkernel::event::EventSet;
use xkernel::map::{LookupKind, Map};
use xkernel::msg::MsgPool;
use xkernel::process::StackPool;

use super::model::RpcModel;
use super::wire::{BidHdr, BlastHdr, ChanHdr};
use crate::driver::{HostParts, LanceDriver};
use crate::libmodel::LibModels;
use crate::options::StackOptions;

/// BLAST fragment payload size.
pub const FRAG_SIZE: usize = 1024;
/// CHAN request timeout.
pub const CHAN_RTO_NS: Ns = 3_000_000;
/// BLAST selective-retransmission (NACK) timeout.
pub const BLAST_NACK_NS: Ns = 1_500_000;

/// Timer payloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RpcTimer {
    ChanTimeout(u32),
    /// A multi-fragment BLAST message is incomplete: ask the sender for
    /// the missing pieces.
    BlastNack(u16),
}

/// One RPC endpoint.
pub struct RpcHost {
    pub name: &'static str,
    pub opts: StackOptions,
    pub rec: Recorder,
    pub lib: LibModels,
    pub model: RpcModel,
    pub lance: LanceDriver,
    pub pool: MsgPool,
    pub stacks: StackPool,
    pub timers: EventSet<RpcTimer>,

    pub mac: MacAddr,
    pub peer_mac: MacAddr,
    pub boot_id: u64,
    pub peer_boot_id: u64,

    // Client state.
    next_seq: u32,
    next_msg_id: u16,
    /// Outstanding request: (seq, wire payload for retransmission).
    outstanding: Option<(u32, Vec<u8>)>,
    vchan_free: Vec<u32>,
    cur_chan: Option<u32>,
    /// Channel demux map.
    pub chan_map: Map<u32, u32>,
    /// Simulated base address of the outbound message pool.
    pool_base: u64,

    // Server state.
    pub is_server: bool,
    last_req_seq: u32,
    /// Cached reply for duplicate-request retransmission.
    last_reply: Option<Vec<u8>>,

    /// BLAST reassembly: msg_id → fragments.
    blast_parts: HashMap<u16, Vec<Option<Vec<u8>>>>,
    /// Fragments we sent, retained for NACK-driven retransmission:
    /// msg_id → eth payloads (BLAST header + body).
    sent_frags: HashMap<u16, Vec<Vec<u8>>>,
    /// Messages with a NACK timer pending (one timer per message).
    nack_armed: std::collections::HashSet<u16>,
    /// Count of NACKs we issued (for tests).
    pub nacks_sent: u64,
    /// Count of NACK-driven fragment retransmissions (for tests).
    pub frags_resent: u64,

    /// Completed calls (client) / served requests (server).
    pub completed: u64,
    /// Result payloads delivered to XRPCTEST.
    pub delivered: Vec<Vec<u8>>,
    pub tx_wire: Vec<Vec<u8>>,
}

impl RpcHost {
    /// A host at `mac` talking to `peer_mac`.
    pub fn new(
        name: &'static str,
        model: RpcModel,
        parts: HostParts,
        (mac, peer_mac): (MacAddr, MacAddr),
    ) -> Self {
        let HostParts { lance_model, lib, data, opts, timing } = parts;
        let lance = LanceDriver::new(lance_model, &data, timing);
        let pool_base = data.addr(lib.pool_region, 0) + 0x20000;
        let mut pool = MsgPool::new(16, 2048, pool_base);
        pool.shortcircuit = opts.msg_refresh_shortcircuit;
        let stacks = StackPool::new(8, 16 * 1024, data.stack_top());
        let mut chan_map = Map::new(64);
        for c in 0..4u32 {
            chan_map.bind(c as u64, c, c);
        }
        RpcHost {
            name,
            opts,
            rec: Recorder::new(),
            lib,
            model,
            lance,
            pool,
            stacks,
            timers: EventSet::new(),
            mac,
            peer_mac,
            boot_id: 0x1111_2222_3333_4444,
            peer_boot_id: 0x1111_2222_3333_4444,
            next_seq: 1,
            next_msg_id: 1,
            outstanding: None,
            vchan_free: (0..4).collect(),
            cur_chan: None,
            chan_map,
            pool_base,
            is_server: false,
            last_req_seq: 0,
            last_reply: None,
            blast_parts: HashMap::new(),
            sent_frags: HashMap::new(),
            nack_armed: std::collections::HashSet::new(),
            nacks_sent: 0,
            frags_resent: 0,
            completed: 0,
            delivered: Vec::new(),
            tx_wire: Vec::new(),
        }
    }

    /// Client: issue one RPC with `args` (the latency test uses zero
    /// bytes).  The thread "blocks"; the reply arrives via
    /// [`RpcHost::deliver_wire`].
    pub fn call(&mut self, args: &[u8], now: Ns) {
        let m = self.model.clone();
        self.rec.enter(m.f_xtest_call);
        self.rec.seg(m.s_xc_marshal);

        // MSELECT: pick the server.
        self.rec.call(m.s_xc_call, m.f_msel_call);
        self.rec.seg(m.s_msel_pick);

        // VCHAN: allocate a virtual channel.
        self.rec.call(m.s_msel_call, m.f_vchan_call);
        self.rec.seg(m.s_vch_alloc);
        let chan = self.vchan_free.pop();
        self.rec.cond(m.s_vch_wait, chan.is_none());
        let chan = chan.unwrap_or(0);
        self.cur_chan = Some(chan);

        // CHAN: build the request, arm the timeout, send, block.
        let seq = self.next_seq;
        self.next_seq += 1;
        let msg_addr = self.pool_peek_addr();
        self.rec.call_with(m.s_vch_call, m.f_chan_call, &[msg_addr]);
        self.rec.seg(m.s_ch_hdr);
        self.lib.msg.call_push(&mut self.rec, m.s_ch_push_site, msg_addr);
        let chan_hdr = ChanHdr { chan, seq, dir: ChanHdr::REQUEST };
        let mut inner = chan_hdr.to_bytes().to_vec();
        inner.extend_from_slice(args);
        self.lib.event.call_schedule(&mut self.rec, m.s_ch_timer_site);
        self.timers.schedule(now + CHAN_RTO_NS, RpcTimer::ChanTimeout(seq));
        self.outstanding = Some((seq, inner.clone()));

        // Down through BID and BLAST (recorded inside).
        self.bid_blast_out(&inner, m.s_ch_call, msg_addr);

        // Block awaiting the reply.
        self.lib.thread.call_sem_wait(&mut self.rec, m.s_ch_block_site, true);

        self.rec.leave(); // chan_call
        self.rec.leave(); // vchan_call
        self.rec.leave(); // mselect_call
        self.rec.seg(m.s_xc_unmarshal);
        self.rec.leave(); // xrpctest_call
    }

    fn pool_peek_addr(&self) -> u64 {
        // Deterministic address for the next outbound message buffer,
        // inside the real pool region (a fixed address here would risk
        // aliasing the BAD layout's code arena).
        self.pool_base + (self.next_seq as u64 % 8) * xkernel::msg::MsgPool::SLOT_STRIDE
    }

    /// BID + BLAST + ETH output processing for `inner`
    /// (CHAN-header-plus-payload), entered through `site`.
    fn bid_blast_out(&mut self, inner: &[u8], site: kcode::SegId, msg_addr: u64) {
        let m = self.model.clone();
        self.rec.call_with(site, m.f_bid_push, &[msg_addr]);
        self.rec.seg(m.s_bid_hdr);
        self.lib.msg.call_push(&mut self.rec, m.s_bid_push_site, msg_addr);
        let mut bid_msg = BidHdr { boot_id: self.boot_id }.to_bytes().to_vec();
        bid_msg.extend_from_slice(inner);

        // BLAST: fragment if needed.
        self.rec.call_with(m.s_bid_call, m.f_blast_push, &[msg_addr]);
        self.rec.seg(m.s_bl_hdr);
        self.lib.msg.call_push(&mut self.rec, m.s_bl_push_site, msg_addr);
        let msg_id = self.next_msg_id;
        self.next_msg_id = self.next_msg_id.wrapping_add(1);
        let nfrags = bid_msg.len().div_ceil(FRAG_SIZE).max(1);
        let single = nfrags == 1;
        self.rec.cond(m.s_bl_single, single);
        if !single {
            self.rec.loop_iters(m.s_bl_frag_loop, nfrags as u32);
        }
        let mut retained: Vec<Vec<u8>> = Vec::new();
        for (i, part) in bid_msg
            .chunks(FRAG_SIZE)
            .enumerate()
            .take(nfrags.max(1))
        {
            let hdr = BlastHdr {
                version: BlastHdr::VERSION,
                msg_id,
                frag_index: i as u16,
                frag_count: nfrags as u16,
                total_len: bid_msg.len() as u32,
            };
            let mut payload = hdr.to_bytes().to_vec();
            payload.extend_from_slice(part);
            if !single {
                retained.push(payload.clone());
            }
            self.eth_out(payload, m.s_bl_call, msg_addr);
        }
        if !single {
            // Keep multi-fragment messages for selective retransmission;
            // bound the retention to the last few messages.
            self.sent_frags.insert(msg_id, retained);
            if self.sent_frags.len() > 4 {
                let oldest = *self.sent_frags.keys().min().unwrap();
                self.sent_frags.remove(&oldest);
            }
        }
        if bid_msg.is_empty() {
            // Zero-length message: still one fragment on the wire.
            let hdr = BlastHdr {
                version: BlastHdr::VERSION,
                msg_id,
                frag_index: 0,
                frag_count: 1,
                total_len: 0,
            };
            self.eth_out(hdr.to_bytes().to_vec(), m.s_bl_call, msg_addr);
        }
        self.rec.leave(); // blast_push
        self.rec.leave(); // bid_push
    }

    fn eth_out(&mut self, payload: Vec<u8>, site: kcode::SegId, msg_addr: u64) {
        let m = self.model.clone();
        self.rec.call_with(site, m.f_eth_output, &[msg_addr]);
        self.rec.seg(m.s_etho_hdr);
        self.rec.seg(m.s_etho_arp);
        let frame = Frame::new(self.peer_mac, self.mac, EtherType::Xrpc, payload);
        self.rec.callsite(m.s_etho_call_drv);
        if let Some(bytes) = self.lance.transmit(&mut self.rec, &self.opts, &frame) {
            self.tx_wire.push(bytes);
        }
        self.rec.leave();
    }

    // ---- input ------------------------------------------------------------

    /// A frame arrived.
    pub fn deliver_wire(&mut self, bytes: &[u8], now: Ns) {
        let m = self.model.clone();
        self.rec.enter(m.f_intr);
        self.rec.seg(m.s_intr_dispatch);

        let mut msg = self.pool.alloc();
        let msg_addr = msg.sim_addr();
        self.rec.callsite(m.s_intr_call_rx);
        let frame = {
            let lib = self.lib.clone();
            self.lance.receive(&mut self.rec, &lib, &self.opts, bytes, msg_addr)
        };

        let mut wake_client = false;
        if let Some(frame) = frame {
            if self.opts.classifier_enabled {
                let cls = self.model.classifier.clone();
                cls.classify(&mut self.rec, bytes, msg_addr);
            }
            msg.append(&frame.payload);
            self.rec.call_with(m.s_intr_call_demux, m.f_eth_demux, &[msg_addr]);
            wake_client = self.eth_demux(&frame, msg_addr, now);
            self.rec.leave();
        }

        let fast = self.opts.msg_refresh_shortcircuit && msg.refs() == 1;
        self.rec.cond(m.s_intr_refresh, fast);
        if !fast {
            self.lib.msg.call_destroy(&mut self.rec, m.s_intr_destroy_site, msg_addr, true);
            self.lib.alloc.call_malloc(&mut self.rec, m.s_intr_alloc_site);
        }
        self.pool.refresh(&mut msg);
        self.pool.release(msg);
        self.rec.leave(); // intr

        // The awakened client thread resumes and unwinds to XRPCTEST.
        if wake_client {
            self.rec.enter(m.f_chan_resume);
            self.lib.thread.call_switch(&mut self.rec, m.s_res_switch_site);
            self.rec.seg(m.s_res_unwind);
            self.rec.seg(m.s_res_vchan_free);
            if let Some(c) = self.cur_chan.take() {
                self.vchan_free.push(c);
            }
            self.rec.seg(m.s_res_unmarshal);
            self.rec.leave();
            self.completed += 1;
        }
    }

    /// Returns true when a blocked client call completed (thread wake).
    fn eth_demux(&mut self, frame: &Frame, msg_addr: u64, now: Ns) -> bool {
        let m = self.model.clone();
        self.rec.seg(m.s_ethd_parse);
        let is_rpc = frame.ethertype == EtherType::Xrpc;
        self.rec.cond(m.s_ethd_type, is_rpc);
        if !is_rpc {
            return false;
        }
        self.lib.msg.call_pop(&mut self.rec, m.s_ethd_pop_site, msg_addr);
        self.rec.call_with(m.s_ethd_call_up, m.f_blast_pop, &[msg_addr]);
        let woke = self.blast_pop(&frame.payload, msg_addr, now);
        self.rec.leave();
        woke
    }

    fn blast_pop(&mut self, payload: &[u8], msg_addr: u64, now: Ns) -> bool {
        let m = self.model.clone();
        self.rec.seg(m.s_blp_parse);
        let Some(hdr) = BlastHdr::from_bytes(payload) else {
            return false;
        };

        // A NACK from the peer: selectively retransmit the fragments it
        // is missing.
        let is_nack = hdr.is_nack();
        self.rec.cond(m.s_blp_nack, is_nack);
        if is_nack {
            if let Some(frags) = self.sent_frags.get(&hdr.msg_id).cloned() {
                let mask = hdr.total_len;
                for (i, frag) in frags.iter().enumerate() {
                    if mask & (1 << i) != 0 {
                        self.rec.call_with(m.s_blp_resend_call, m.f_eth_output, &[msg_addr]);
                        self.rec.seg(m.s_etho_hdr);
                        self.rec.seg(m.s_etho_arp);
                        let frame = Frame::new(
                            self.peer_mac,
                            self.mac,
                            EtherType::Xrpc,
                            frag.clone(),
                        );
                        self.rec.callsite(m.s_etho_call_drv);
                        if let Some(bytes) =
                            self.lance.transmit(&mut self.rec, &self.opts, &frame)
                        {
                            self.tx_wire.push(bytes);
                        }
                        self.rec.leave();
                        self.frags_resent += 1;
                    }
                }
            }
            return false;
        }

        let body = &payload[BlastHdr::LEN..];
        let single = hdr.frag_count == 1;
        self.rec.cond(m.s_blp_single, single);

        let assembled: Vec<u8>;
        if single {
            assembled = body[..(hdr.total_len as usize).min(body.len())].to_vec();
        } else {
            let parts = self
                .blast_parts
                .entry(hdr.msg_id)
                .or_insert_with(|| vec![None; hdr.frag_count as usize]);
            if (hdr.frag_index as usize) < parts.len() {
                parts[hdr.frag_index as usize] = Some(body.to_vec());
            }
            let have = parts.iter().filter(|p| p.is_some()).count();
            self.rec.loop_iters(m.s_blp_reass, have as u32);
            let complete = have == parts.len();
            self.rec.cond(m.s_blp_complete, !complete);
            if !complete {
                // Arm the selective-retransmission timer for this
                // message (one timer per message).
                if self.nack_armed.insert(hdr.msg_id) {
                    self.timers
                        .schedule(now + BLAST_NACK_NS, RpcTimer::BlastNack(hdr.msg_id));
                }
                return false;
            }
            let mut whole: Vec<u8> = parts.iter_mut().flat_map(|p| p.take().unwrap()).collect();
            whole.truncate(hdr.total_len as usize);
            self.blast_parts.remove(&hdr.msg_id);
            self.nack_armed.remove(&hdr.msg_id);
            assembled = whole;
        }

        self.lib.msg.call_pop(&mut self.rec, m.s_blp_pop_site, msg_addr);
        self.rec.call_with(m.s_blp_call, m.f_bid_pop, &[msg_addr]);
        let woke = self.bid_pop(&assembled, msg_addr, now);
        self.rec.leave();
        woke
    }

    fn bid_pop(&mut self, data: &[u8], msg_addr: u64, now: Ns) -> bool {
        let m = self.model.clone();
        self.rec.seg(m.s_bidp_check);
        let Some(hdr) = BidHdr::from_bytes(data) else {
            return false;
        };
        let stale = hdr.boot_id != self.peer_boot_id;
        self.rec.cond(m.s_bidp_stale, stale);
        if stale {
            return false; // peer rebooted: drop
        }
        self.lib.msg.call_pop(&mut self.rec, m.s_bidp_pop_site, msg_addr);
        self.rec.call_with(m.s_bidp_call, m.f_chan_demux, &[msg_addr]);
        let woke = self.chan_demux(&data[BidHdr::LEN..], msg_addr, now);
        self.rec.leave();
        woke
    }

    fn chan_demux(&mut self, data: &[u8], msg_addr: u64, now: Ns) -> bool {
        let m = self.model.clone();
        self.rec.seg(m.s_chd_parse);
        let Some(hdr) = ChanHdr::from_bytes(data) else {
            return false;
        };
        let payload = &data[ChanHdr::LEN..];

        // Channel demux through the map.
        let (found, kind) = self.chan_map.lookup(hdr.chan as u64, &hdr.chan);
        if self.opts.inline_map_cache {
            let hit = kind == LookupKind::CacheHit;
            self.rec.cond(m.s_chd_map_hit, hit);
            if !hit {
                self.lib.map.call(&mut self.rec, m.s_chd_map_site, msg_addr, false, 1);
            }
        } else {
            self.lib.map.call(
                &mut self.rec,
                m.s_chd_map_site,
                msg_addr,
                kind == LookupKind::CacheHit,
                1,
            );
        }
        if found.is_none() {
            return false;
        }

        if self.is_server {
            // Request processing.
            let dup = hdr.dir == ChanHdr::REQUEST && hdr.seq == self.last_req_seq;
            self.rec.cond(m.s_chd_dup, dup);
            if dup {
                // Retransmit the cached reply.
                if let Some(reply) = self.last_reply.clone() {
                    self.bid_blast_out(&reply, m.s_chd_call_up, msg_addr);
                }
                return false;
            }
            self.rec.cond(m.s_chd_is_reply, false);
            self.last_req_seq = hdr.seq;
            // Up to XRPCTEST and reply.
            self.rec.call_with(m.s_chd_call_up, m.f_xtest_serve, &[msg_addr]);
            self.rec.seg(m.s_xs_dispatch);
            self.delivered.push(payload.to_vec());
            self.completed += 1;
            let result = payload.to_vec(); // echo service
            // CHAN builds the reply.
            self.rec.call_with(m.s_xs_reply_call, m.f_chan_reply, &[msg_addr]);
            self.rec.seg(m.s_chr_hdr);
            self.lib.msg.call_push(&mut self.rec, m.s_chr_push_site, msg_addr);
            let reply_hdr = ChanHdr { chan: hdr.chan, seq: hdr.seq, dir: ChanHdr::REPLY };
            let mut reply = reply_hdr.to_bytes().to_vec();
            reply.extend_from_slice(&result);
            self.last_reply = Some(reply.clone());
            self.bid_blast_out(&reply, m.s_chr_call, msg_addr);
            self.rec.leave(); // chan_reply
            self.rec.leave(); // xtest_serve
            let _ = now;
            false
        } else {
            // Client: reply processing.
            self.rec.cond(m.s_chd_dup, false);
            self.rec.cond(m.s_chd_is_reply, true);
            let matches = self
                .outstanding
                .as_ref()
                .map(|(seq, _)| *seq == hdr.seq && hdr.dir == ChanHdr::REPLY)
                .unwrap_or(false);
            if !matches {
                return false; // stray or late reply
            }
            self.outstanding = None;
            self.lib.event.call_cancel(&mut self.rec, m.s_chd_timer_site);
            self.lib.thread.call_sem_signal(&mut self.rec, m.s_chd_signal_site);
            self.delivered.push(payload.to_vec());
            true
        }
    }

    // ---- timers -----------------------------------------------------------

    /// Fire due timers (CHAN request retransmission).
    pub fn poll_timers(&mut self, now: Ns) {
        let m = self.model.clone();
        for (_, timer) in self.timers.expire(now) {
            match timer {
                RpcTimer::ChanTimeout(seq) => {
                    if let Some((out_seq, inner)) = self.outstanding.clone() {
                        if out_seq == seq {
                            self.rec.enter(m.f_chan_timeout);
                            self.rec.seg(m.s_cht_checks);
                            self.bid_blast_out(&inner, m.s_cht_call, self.pool_peek_addr());
                            self.rec.leave();
                            self.timers
                                .schedule(now + CHAN_RTO_NS, RpcTimer::ChanTimeout(seq));
                        }
                    }
                }
                RpcTimer::BlastNack(msg_id) => self.send_blast_nack(msg_id, now),
            }
        }
    }

    /// The NACK timer fired: if the message is still incomplete, tell
    /// the sender which fragments are missing.
    fn send_blast_nack(&mut self, msg_id: u16, now: Ns) {
        let Some(parts) = self.blast_parts.get(&msg_id) else {
            self.nack_armed.remove(&msg_id);
            return; // completed (or aborted) in the meantime
        };
        let mut mask = 0u32;
        for (i, p) in parts.iter().enumerate().take(32) {
            if p.is_none() {
                mask |= 1 << i;
            }
        }
        if mask == 0 {
            return;
        }
        let m = self.model.clone();
        let nack = BlastHdr::nack(msg_id, parts.len() as u16, mask);
        self.rec.enter(m.f_blast_nack);
        self.rec.seg(m.s_nk_build);
        self.eth_out(nack.to_bytes().to_vec(), m.s_nk_call, self.pool_peek_addr());
        self.rec.leave();
        self.nacks_sent += 1;
        // Keep nagging until complete.
        self.timers
            .schedule(now + BLAST_NACK_NS, RpcTimer::BlastNack(msg_id));
    }

    pub fn next_timer(&mut self) -> Option<Ns> {
        self.timers.next_deadline()
    }

    pub fn take_episode(&mut self) -> kcode::EventStream {
        self.rec.take()
    }

    pub fn take_tx(&mut self) -> Vec<Vec<u8>> {
        std::mem::take(&mut self.tx_wire)
    }
}
