//! Admission control: a bounded global cost budget with per-connection
//! fairness and a bounded FIFO wait queue.
//!
//! Every chargeable request (artefact, sim, compile, profile) is priced
//! by the calibrated [`crate::cost::CostModel`] *before* it executes. The
//! controller tracks the total cost of everything currently in flight:
//!
//! * a request that fits the budget (and its connection's fair share) is
//!   **admitted** — it holds a [`Permit`] whose drop releases the charge;
//! * a request that does not fit **queues** in a bounded FIFO and waits
//!   for capacity, up to the caller's parking deadline;
//! * a request that can never fit (cost exceeds the whole budget or the
//!   fair share), arrives at a full queue, or times out in the queue is
//!   **shed** — the server answers with a typed `overloaded` reply
//!   carrying `retry_after_ms`, and the connection stays open.
//!
//! Fairness: one connection may hold at most `fair_share` of the budget
//! in flight, so a single aggressive client cannot starve the fleet even
//! when its requests individually fit.
//!
//! The queue is strict FIFO: a large request at the head waits until it
//! fits, and smaller requests behind it wait their turn (bounded by the
//! deadline). That head-of-line behaviour is a deliberate simplicity
//! choice, recorded in DESIGN.md's non-claims.
//!
//! Admission never blocks: [`AdmissionController::try_admit`] admits,
//! sheds, or returns a [`Ticket`] when the request must wait. The caller
//! (the event loop) parks the request and later claims the queue head
//! with [`AdmissionController::claim_head`], sheds it on its own deadline
//! with [`AdmissionController::shed_ticket`], or abandons it with
//! [`AdmissionController::forget_ticket`]. A queued request therefore
//! waits without holding a worker thread.
//!
//! An admitted charge can cross threads: [`Permit::into_charge`] detaches
//! the RAII guard into a plain-data [`Charge`] that travels with the job,
//! and [`AdmissionController::resume`] re-attaches it on the worker so the
//! release stays panic-safe at the point of execution.

use std::collections::{HashMap, VecDeque};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// A budget so large it never rejects — the default, preserving the
/// pre-admission behaviour of existing deployments. Far below `u64::MAX`
/// so charge arithmetic can never overflow.
pub const UNLIMITED_BUDGET: u64 = u64::MAX / 4;

/// Controller tuning knobs.
#[derive(Debug, Clone)]
pub struct AdmissionOptions {
    /// Total in-flight cost units the daemon will hold at once.
    pub budget: u64,
    /// Requests that may wait for capacity at once; beyond this, shed
    /// immediately.
    pub queue_cap: usize,
    /// Fraction of the budget one connection may hold in flight
    /// (clamped to (0, 1]).
    pub fair_share: f64,
}

impl Default for AdmissionOptions {
    fn default() -> Self {
        Self {
            budget: UNLIMITED_BUDGET,
            queue_cap: 64,
            fair_share: 1.0,
        }
    }
}

/// Why a request was shed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// The request's cost exceeds the whole budget (or the fair share) —
    /// it could never be admitted, at any load.
    Oversize,
    /// The wait queue was full on arrival.
    QueueFull,
    /// The request waited its full deadline without capacity freeing.
    Deadline,
    /// The controller was closed (server shutdown) while waiting.
    Closed,
}

/// A shed decision: the reason plus the backoff hint the `overloaded`
/// reply carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shed {
    /// Why.
    pub reason: ShedReason,
    /// How long the client should wait before retrying, in milliseconds.
    /// Derived from the capacity deficit at decision time (cost units are
    /// calibrated microseconds, so the deficit *is* a time estimate),
    /// clamped to `1..=30_000`.
    pub retry_after_ms: u64,
}

/// Monotonic counters plus gauges, snapshot for the metrics line.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdmissionSnapshot {
    /// Configured budget.
    pub budget: u64,
    /// Cost units currently in flight.
    pub in_flight: u64,
    /// High-water mark of `in_flight`.
    pub peak_in_flight: u64,
    /// Requests admitted (with or without queueing).
    pub admitted: u64,
    /// Requests that waited in the queue before their outcome.
    pub queued: u64,
    /// Requests currently waiting.
    pub queue_depth: u64,
    /// Total sheds (== the sum of the per-reason counters).
    pub sheds: u64,
    /// Sheds: could never fit.
    pub shed_oversize: u64,
    /// Sheds: queue full on arrival.
    pub shed_queue_full: u64,
    /// Sheds: deadline expired while queued.
    pub shed_deadline: u64,
    /// Sheds: shutdown while queued.
    pub shed_closed: u64,
}

/// A queued request: who is waiting and for how much.
#[derive(Debug, Clone, Copy)]
struct Waiter {
    ticket: u64,
    conn: u64,
    cost: u64,
}

#[derive(Debug, Default)]
struct State {
    in_flight: u64,
    per_conn: HashMap<u64, u64>,
    queue: VecDeque<Waiter>,
    next_ticket: u64,
    closed: bool,
    // Counters (under the same lock as the state they describe).
    admitted: u64,
    queued: u64,
    peak_in_flight: u64,
    shed_oversize: u64,
    shed_queue_full: u64,
    shed_deadline: u64,
    shed_closed: u64,
}

/// The admission controller. One per server; shared by every worker.
#[derive(Debug)]
pub struct AdmissionController {
    opts: AdmissionOptions,
    conn_cap: u64,
    state: Mutex<State>,
}

impl AdmissionController {
    /// A controller over `opts`.
    pub fn new(opts: AdmissionOptions) -> Self {
        let share = opts.fair_share.clamp(f64::MIN_POSITIVE, 1.0);
        // Saturating f64→u64 (budget ≤ u64::MAX/4, so the product fits).
        let conn_cap = ((opts.budget as f64 * share) as u64).max(1);
        Self {
            opts,
            conn_cap,
            state: Mutex::new(State::default()),
        }
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The per-connection in-flight cap (`budget * fair_share`).
    pub fn conn_cap(&self) -> u64 {
        self.conn_cap
    }

    /// Whether a request of `cost` on `conn` would be admitted right now
    /// without queueing — the `estimate` op's `admit_now` member. Does
    /// not charge.
    pub fn would_admit(&self, conn: u64, cost: u64) -> bool {
        let st = self.lock();
        !st.closed && st.queue.is_empty() && self.fits(&st, conn, cost)
    }

    fn fits(&self, st: &State, conn: u64, cost: u64) -> bool {
        st.in_flight.saturating_add(cost) <= self.opts.budget
            && st
                .per_conn
                .get(&conn)
                .copied()
                .unwrap_or(0)
                .saturating_add(cost)
                <= self.conn_cap
    }

    fn retry_after_ms(&self, st: &State, conn: u64, cost: u64) -> u64 {
        let budget_deficit = st
            .in_flight
            .saturating_add(cost)
            .saturating_sub(self.opts.budget);
        let conn_deficit = st
            .per_conn
            .get(&conn)
            .copied()
            .unwrap_or(0)
            .saturating_add(cost)
            .saturating_sub(self.conn_cap);
        // Units are calibrated microseconds: the deficit is roughly how
        // much compute must drain before this request fits.
        (budget_deficit.max(conn_deficit) / 1000).clamp(1, 30_000)
    }

    fn charge(&self, st: &mut State, conn: u64, cost: u64) {
        st.in_flight += cost;
        st.peak_in_flight = st.peak_in_flight.max(st.in_flight);
        *st.per_conn.entry(conn).or_insert(0) += cost;
        st.admitted += 1;
    }

    /// Admits, queues (returning a [`Ticket`] the caller parks), or sheds
    /// a request of `cost` from connection `conn`; never waits.
    pub fn try_admit(&self, conn: u64, cost: u64) -> TryAdmit<'_> {
        let mut st = self.lock();
        if st.closed {
            return TryAdmit::Shed(Shed {
                reason: ShedReason::Closed,
                retry_after_ms: self.retry_after_ms(&st, conn, cost),
            });
        }
        if cost > self.opts.budget || cost > self.conn_cap {
            st.shed_oversize += 1;
            return TryAdmit::Shed(Shed {
                reason: ShedReason::Oversize,
                retry_after_ms: self.retry_after_ms(&st, conn, cost),
            });
        }
        if st.queue.is_empty() && self.fits(&st, conn, cost) {
            self.charge(&mut st, conn, cost);
            return TryAdmit::Admitted(Permit {
                ctrl: self,
                conn,
                cost,
            });
        }
        if st.queue.len() >= self.opts.queue_cap {
            st.shed_queue_full += 1;
            return TryAdmit::Shed(Shed {
                reason: ShedReason::QueueFull,
                retry_after_ms: self.retry_after_ms(&st, conn, cost),
            });
        }
        let ticket = st.next_ticket;
        st.next_ticket += 1;
        st.queue.push_back(Waiter { ticket, conn, cost });
        st.queued += 1;
        TryAdmit::Queued(Ticket(ticket))
    }

    /// Try to admit the queue head. The event loop calls this after every
    /// release until it returns [`HeadClaim::Empty`] or
    /// [`HeadClaim::Pending`]; strict FIFO is preserved because only the
    /// head is ever considered.
    pub fn claim_head(&self) -> HeadClaim<'_> {
        let mut st = self.lock();
        let Some(&head) = st.queue.front() else {
            return HeadClaim::Empty;
        };
        if st.closed {
            st.queue.pop_front();
            st.shed_closed += 1;
            let shed = Shed {
                reason: ShedReason::Closed,
                retry_after_ms: self.retry_after_ms(&st, head.conn, head.cost),
            };
            return HeadClaim::Shed {
                ticket: Ticket(head.ticket),
                shed,
            };
        }
        if !self.fits(&st, head.conn, head.cost) {
            return HeadClaim::Pending;
        }
        st.queue.pop_front();
        self.charge(&mut st, head.conn, head.cost);
        HeadClaim::Admitted {
            ticket: Ticket(head.ticket),
            permit: Permit {
                ctrl: self,
                conn: head.conn,
                cost: head.cost,
            },
        }
    }

    /// Shed a still-queued ticket on its parking deadline, with
    /// `shed_deadline` accounting. Returns `None` if the ticket already
    /// left the queue (admitted or shed through another path).
    pub fn shed_ticket(&self, ticket: Ticket) -> Option<Shed> {
        let mut st = self.lock();
        let pos = st.queue.iter().position(|w| w.ticket == ticket.0)?;
        let w = st.queue.remove(pos)?;
        st.shed_deadline += 1;
        Some(Shed {
            reason: ShedReason::Deadline,
            retry_after_ms: self.retry_after_ms(&st, w.conn, w.cost),
        })
    }

    /// Drop a queued ticket without shed accounting — the connection died
    /// while parked, so there is nobody to answer. No-op if the ticket
    /// already left the queue.
    pub fn forget_ticket(&self, ticket: Ticket) {
        self.lock().queue.retain(|w| w.ticket != ticket.0);
    }

    /// Re-attach a transferred [`Charge`] as an RAII permit on this
    /// controller (the worker-side half of [`Permit::into_charge`]).
    pub fn resume(&self, charge: Charge) -> Permit<'_> {
        Permit {
            ctrl: self,
            conn: charge.conn,
            cost: charge.cost,
        }
    }

    fn release(&self, conn: u64, cost: u64) {
        let mut st = self.lock();
        st.in_flight = st.in_flight.saturating_sub(cost);
        if let Some(held) = st.per_conn.get_mut(&conn) {
            *held = held.saturating_sub(cost);
            if *held == 0 {
                // Connections come and go; an empty entry must not leak.
                st.per_conn.remove(&conn);
            }
        }
    }

    /// Closes the controller at server shutdown: new requests shed as
    /// `Closed`, and [`AdmissionController::claim_head`] sheds every
    /// queued ticket the same way.
    pub fn close(&self) {
        self.lock().closed = true;
    }

    /// Counter/gauge snapshot.
    pub fn snapshot(&self) -> AdmissionSnapshot {
        let st = self.lock();
        AdmissionSnapshot {
            budget: self.opts.budget,
            in_flight: st.in_flight,
            peak_in_flight: st.peak_in_flight,
            admitted: st.admitted,
            queued: st.queued,
            queue_depth: st.queue.len() as u64,
            sheds: st.shed_oversize + st.shed_queue_full + st.shed_deadline + st.shed_closed,
            shed_oversize: st.shed_oversize,
            shed_queue_full: st.shed_queue_full,
            shed_deadline: st.shed_deadline,
            shed_closed: st.shed_closed,
        }
    }
}

/// Opaque handle for a request parked in the admission queue via
/// [`AdmissionController::try_admit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Ticket(u64);

impl Ticket {
    /// Stable integer form, usable as a map key.
    pub fn raw(self) -> u64 {
        self.0
    }
}

/// Outcome of a non-blocking admission attempt.
#[derive(Debug)]
pub enum TryAdmit<'a> {
    /// Admitted immediately; the permit holds the charge.
    Admitted(Permit<'a>),
    /// Queued; the caller parks the request under this ticket.
    Queued(Ticket),
    /// Shed; answer with a typed `overloaded` reply.
    Shed(Shed),
}

/// Outcome of [`AdmissionController::claim_head`].
#[derive(Debug)]
pub enum HeadClaim<'a> {
    /// Nothing is queued.
    Empty,
    /// The head exists but does not fit yet; try again after a release.
    Pending,
    /// The head was admitted; route the permit to its parked request.
    Admitted {
        /// The parked request's ticket.
        ticket: Ticket,
        /// Its admission charge.
        permit: Permit<'a>,
    },
    /// The head was shed (controller closed); answer the parked request.
    Shed {
        /// The parked request's ticket.
        ticket: Ticket,
        /// The typed shed decision.
        shed: Shed,
    },
}

/// A detached admission charge in transit between threads. Unlike
/// [`Permit`] it has no drop glue — whoever holds it must either
/// [`AdmissionController::resume`] it into a permit or accept the leak —
/// so its lifetime outside a permit should be a handful of statements.
#[derive(Debug, Clone, Copy)]
pub struct Charge {
    conn: u64,
    cost: u64,
}

impl Charge {
    /// The cost units this charge holds.
    pub fn cost(&self) -> u64 {
        self.cost
    }
}

/// A held admission charge; dropping it releases the cost units (RAII, so
/// a panicking handler can never leak budget).
#[derive(Debug)]
pub struct Permit<'a> {
    ctrl: &'a AdmissionController,
    conn: u64,
    cost: u64,
}

impl Permit<'_> {
    /// The charge this permit holds.
    pub fn cost(&self) -> u64 {
        self.cost
    }

    /// Detach into a plain-data [`Charge`] (suppressing the release) so
    /// the charge can ride a job queue to a worker thread.
    pub fn into_charge(self) -> Charge {
        let charge = Charge {
            conn: self.conn,
            cost: self.cost,
        };
        std::mem::forget(self);
        charge
    }
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        self.ctrl.release(self.conn, self.cost);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts(budget: u64, queue_cap: usize, fair_share: f64) -> AdmissionOptions {
        AdmissionOptions {
            budget,
            queue_cap,
            fair_share,
        }
    }

    fn admitted(outcome: TryAdmit<'_>) -> Permit<'_> {
        match outcome {
            TryAdmit::Admitted(permit) => permit,
            other => panic!("expected admit, got {other:?}"),
        }
    }

    fn queued(outcome: TryAdmit<'_>) -> Ticket {
        match outcome {
            TryAdmit::Queued(ticket) => ticket,
            other => panic!("expected queue, got {other:?}"),
        }
    }

    fn shed(outcome: TryAdmit<'_>) -> Shed {
        match outcome {
            TryAdmit::Shed(shed) => shed,
            other => panic!("expected shed, got {other:?}"),
        }
    }

    #[test]
    fn admits_within_budget_and_releases_on_drop() {
        let ctrl = AdmissionController::new(opts(100, 4, 1.0));
        let a = admitted(ctrl.try_admit(1, 60));
        assert_eq!(ctrl.snapshot().in_flight, 60);
        assert!(!ctrl.would_admit(1, 60), "second 60 exceeds the budget");
        drop(a);
        assert_eq!(ctrl.snapshot().in_flight, 0);
        assert!(ctrl.would_admit(1, 60));
        let snap = ctrl.snapshot();
        assert_eq!(snap.admitted, 1);
        assert_eq!(snap.peak_in_flight, 60);
        assert_eq!(snap.sheds, 0);
    }

    #[test]
    fn oversize_requests_shed_immediately_with_a_retry_hint() {
        let ctrl = AdmissionController::new(opts(100, 4, 1.0));
        let shed = shed(ctrl.try_admit(1, 101));
        assert_eq!(shed.reason, ShedReason::Oversize);
        assert!(shed.retry_after_ms >= 1);
        assert_eq!(ctrl.snapshot().shed_oversize, 1);
    }

    #[test]
    fn fairness_caps_one_connection_below_the_global_budget() {
        let ctrl = AdmissionController::new(opts(100, 4, 0.5));
        assert_eq!(ctrl.conn_cap(), 50);
        let _a = admitted(ctrl.try_admit(7, 40));
        // Same connection: 40 + 40 > 50 → queues, then deadline-sheds
        // (nothing will free).
        let ticket = queued(ctrl.try_admit(7, 40));
        assert!(matches!(ctrl.claim_head(), HeadClaim::Pending));
        let shed = ctrl.shed_ticket(ticket).expect("still queued");
        assert_eq!(shed.reason, ShedReason::Deadline);
        // A different connection still fits the global budget.
        let _b = admitted(ctrl.try_admit(8, 40));
        // A single request larger than the share is oversize outright.
        let shed = self::shed(ctrl.try_admit(9, 51));
        assert_eq!(shed.reason, ShedReason::Oversize);
    }

    #[test]
    fn full_queue_sheds_and_deadline_sheds_are_typed() {
        let ctrl = AdmissionController::new(opts(10, 1, 1.0));
        let _hold = admitted(ctrl.try_admit(1, 10));
        // One waiter occupies the single queue slot until its deadline.
        let ticket = queued(ctrl.try_admit(2, 5));
        let shed = shed(ctrl.try_admit(3, 5));
        assert_eq!(shed.reason, ShedReason::QueueFull);
        let shed = ctrl.shed_ticket(ticket).expect("still queued");
        assert_eq!(shed.reason, ShedReason::Deadline);
        let snap = ctrl.snapshot();
        assert_eq!(snap.shed_queue_full, 1);
        assert_eq!(snap.shed_deadline, 1);
        assert_eq!(snap.sheds, 2);
        assert_eq!(snap.queue_depth, 0, "deadline waiter left the queue");
    }

    #[test]
    fn post_close_admissions_shed_as_closed() {
        let ctrl = AdmissionController::new(opts(10, 8, 1.0));
        ctrl.close();
        assert!(!ctrl.would_admit(9, 1));
        let shed = shed(ctrl.try_admit(9, 1));
        assert_eq!(shed.reason, ShedReason::Closed);
        // No counter class: the daemon is going away.
        let snap = ctrl.snapshot();
        assert_eq!((snap.sheds, snap.admitted, snap.queue_depth), (0, 0, 0));
    }

    #[test]
    fn try_admit_parks_and_claim_head_admits_in_fifo_order() {
        let ctrl = AdmissionController::new(opts(100, 8, 1.0));
        let hold = admitted(ctrl.try_admit(1, 100));
        let t_a = queued(ctrl.try_admit(2, 30));
        let t_b = queued(ctrl.try_admit(3, 30));
        assert!(matches!(ctrl.claim_head(), HeadClaim::Pending));
        drop(hold);
        let first = match ctrl.claim_head() {
            HeadClaim::Admitted { ticket, permit } => {
                assert_eq!(ticket, t_a, "strict FIFO");
                permit
            }
            other => panic!("expected head admit, got {other:?}"),
        };
        match ctrl.claim_head() {
            HeadClaim::Admitted { ticket, .. } => assert_eq!(ticket, t_b),
            other => panic!("expected second admit, got {other:?}"),
        }
        assert!(matches!(ctrl.claim_head(), HeadClaim::Empty));
        drop(first);
        let snap = ctrl.snapshot();
        assert_eq!(snap.admitted, 3);
        assert_eq!(snap.queued, 2);
        assert_eq!(snap.sheds, 0);
    }

    #[test]
    fn shed_ticket_and_forget_ticket_account_differently() {
        let ctrl = AdmissionController::new(opts(10, 8, 1.0));
        let _hold = admitted(ctrl.try_admit(1, 10));
        let t_shed = queued(ctrl.try_admit(2, 5));
        let t_gone = queued(ctrl.try_admit(3, 5));
        let shed = ctrl.shed_ticket(t_shed).expect("still queued");
        assert_eq!(shed.reason, ShedReason::Deadline);
        assert!(ctrl.shed_ticket(t_shed).is_none(), "second shed is a no-op");
        ctrl.forget_ticket(t_gone);
        let snap = ctrl.snapshot();
        assert_eq!(snap.shed_deadline, 1);
        assert_eq!(snap.sheds, 1, "forget has no shed accounting");
        assert_eq!(snap.queue_depth, 0);
    }

    #[test]
    fn claim_head_sheds_closed_with_accounting() {
        let ctrl = AdmissionController::new(opts(10, 8, 1.0));
        let _hold = admitted(ctrl.try_admit(1, 10));
        let ticket = queued(ctrl.try_admit(2, 5));
        ctrl.close();
        match ctrl.claim_head() {
            HeadClaim::Shed { ticket: t, shed } => {
                assert_eq!(t, ticket);
                assert_eq!(shed.reason, ShedReason::Closed);
            }
            other => panic!("expected closed shed, got {other:?}"),
        }
        assert_eq!(ctrl.snapshot().shed_closed, 1);
        assert!(matches!(ctrl.claim_head(), HeadClaim::Empty));
    }

    #[test]
    fn a_charge_rides_to_another_thread_and_releases_there() {
        let ctrl = AdmissionController::new(opts(100, 4, 1.0));
        let charge = admitted(ctrl.try_admit(1, 60)).into_charge();
        assert_eq!(ctrl.snapshot().in_flight, 60, "charge survives detach");
        assert_eq!(charge.cost(), 60);
        std::thread::scope(|s| {
            s.spawn(|| {
                let resumed = ctrl.resume(charge);
                assert_eq!(resumed.cost(), 60);
                // Even a panicking worker releases via the RAII permit.
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    let _permit = resumed;
                    panic!("worker died");
                }));
                assert!(result.is_err());
            });
        });
        assert_eq!(ctrl.snapshot().in_flight, 0);
    }

    #[test]
    fn permits_are_panic_safe() {
        let ctrl = AdmissionController::new(opts(100, 4, 1.0));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _permit = admitted(ctrl.try_admit(1, 70));
            panic!("handler died");
        }));
        assert!(result.is_err());
        assert_eq!(ctrl.snapshot().in_flight, 0, "charge released on unwind");
    }
}
