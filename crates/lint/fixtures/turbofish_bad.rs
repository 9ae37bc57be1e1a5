//! Non-default policies are declared with a turbofish,
//! `RawSimpleLock::<Mcs>::named("x.lock")`, as E16's ticket/MCS locks
//! are, or bound to a local. They must still register their class and
//! display name, so this AB/BA pair is reported over the registered
//! names and the local's order edge is recorded under its name.
//! Expected: exactly one lock-order cycle.

use machk_sync::{Mcs, RawSimpleLock, Ticket};

static FIX_T: RawSimpleLock<Ticket> = RawSimpleLock::<Ticket>::named("fixture.ticket");
static FIX_M: RawSimpleLock<Mcs> = RawSimpleLock::<Mcs>::named("x.lock");

pub fn ticket_then_mcs() {
    let gt = FIX_T.lock();
    let gm = FIX_M.lock();
    drop(gm);
    drop(gt);
}

pub fn mcs_then_ticket() {
    let gm = FIX_M.lock();
    let gt = FIX_T.lock();
    drop(gt);
    drop(gm);
}

pub fn local_ticket_then_mcs() {
    let t = RawSimpleLock::<Ticket>::named("t.lock");
    let gt = t.lock();
    let gm = FIX_M.lock();
    drop(gm);
    drop(gt);
}
