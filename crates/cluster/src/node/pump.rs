//! The node's one background thread: receive, heartbeat, tick. It is the
//! only code outside [`super::Node`]'s own methods that puts a frame on the
//! link — every handler it calls returns its reply instead of sending it,
//! and no `Inner` guard is held across a send.

use super::{recv, Core};
use crate::transport::TransportError;
use crate::wire::{Message, NackReason};
use fc_simkit::SimTime;
use std::sync::atomic::Ordering;
use std::time::Instant;

/// Background loop: receive messages, send heartbeats, watch the monitor,
/// tick the replication pipe's retransmit timer, and drive the resync state
/// machine.
pub(super) fn pump_loop(core: &Core) {
    let cfg = &core.cfg;
    let epoch = Instant::now();
    let mut last_beat = Instant::now() - cfg.heartbeat;
    while !core.shutdown.load(Ordering::SeqCst) {
        // Receive with a short timeout so beats and polls stay timely, and
        // shorter still when the oldest in-flight batch's retransmit
        // deadline comes first.
        let wait = core.pipe.tick().map_or(cfg.heartbeat / 2, |due| {
            due.saturating_duration_since(Instant::now())
                .min(cfg.heartbeat / 2)
        });
        if core.halted.load(Ordering::SeqCst) {
            // Crash-faulted: dead nodes send no heartbeats and process no
            // messages. Drain (and drop) inbound traffic so a later restart
            // does not replay a backlog from its outage.
            if core.transport.recv_timeout(wait) == Err(TransportError::Disconnected) {
                std::thread::sleep(cfg.heartbeat);
            }
            continue;
        }
        // Periodic heartbeat, advertising our remaining hosting credits.
        if last_beat.elapsed() >= cfg.heartbeat {
            last_beat = Instant::now();
            let credits = core.inner.lock().hosted.credits();
            let _ = core.transport.send(Message::Heartbeat {
                from: cfg.id,
                at_millis: epoch.elapsed().as_millis() as u64,
                credits,
            });
        }
        let msg = core.transport.recv_timeout(wait);
        let now = SimTime::from_nanos(epoch.elapsed().as_nanos() as u64);
        match msg {
            Ok(Some(m)) => {
                if let Some(reply) = dispatch(core, m, now) {
                    let _ = core.transport.send(reply);
                }
            }
            Err(TransportError::Disconnected) => {
                core.inner.lock().enter_solo("disconnected");
                // Keep looping: the caller may replace nothing, but shutdown
                // still needs to be honoured; back off a little.
                std::thread::sleep(cfg.heartbeat);
            }
            // A timed-out receive is not a verdict on the link; the
            // heartbeat monitor decides.
            Ok(None) | Err(TransportError::Timeout) => {}
        }
        let resync_pages = core.inner.lock().on_tick(now);
        if !resync_pages.is_empty() {
            core.pipe.submit(resync_pages);
        }
    }
}

/// Route one frame from the peer to whoever owns its state — `Inner`'s
/// receive handlers, the pipe, or a parked recovery call — and return the
/// reply to send, if any (every guard taken here is gone by then).
fn dispatch(core: &Core, msg: Message, now: SimTime) -> Option<Message> {
    match msg {
        Message::WriteReplBatch {
            epoch,
            seq,
            entries,
        } => {
            let damaged = recv::damaged(&entries);
            core.inner.lock().on_batch(epoch, seq, entries, damaged)
        }
        Message::ReplAckBatch {
            epoch,
            up_to,
            credits,
        } => {
            core.inner.lock().credits = Some(credits);
            core.pipe.on_ack(epoch, up_to);
            None
        }
        Message::ReplNackBatch { epoch, seq, reason } => {
            if reason == NackReason::NoCredit {
                core.inner.lock().credits = Some(0);
            }
            core.pipe.on_nack(epoch, seq, reason);
            None
        }
        Message::Discard { seq, pages } => {
            core.inner.lock().on_discard(seq, pages);
            None
        }
        Message::Heartbeat { credits, .. } => {
            core.inner.lock().on_heartbeat(credits, now);
            None
        }
        Message::RctFetch => {
            let entries = core.inner.lock().hosted.snapshot();
            Some(Message::RctSnapshot { entries })
        }
        Message::Purge => {
            core.inner.lock().hosted.purge();
            Some(Message::PurgeAck)
        }
        Message::PageFetch { lpn } => {
            let hit = core.inner.lock().hosted.lookup(lpn);
            Some(Message::page_data(lpn, hit))
        }
        reply @ (Message::RctSnapshot { .. } | Message::PurgeAck | Message::PageData { .. }) => {
            // Every parked call gets it and picks out its own; one that
            // gave up dropped its receiver and is forgotten here.
            let mut parked = core.parked.lock();
            parked.retain(|call| call.send(reply.clone()).is_ok());
            None
        }
    }
}
