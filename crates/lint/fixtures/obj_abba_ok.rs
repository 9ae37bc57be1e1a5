//! Clean twin of `obj_abba_bad.rs`: the port drops its lock before it
//! touches the task, so every path takes the task lock first (§5).
//! Expected: clean.

use machk_core::Kobj;

pub struct Task { obj: Kobj<u32> }
pub struct Port { obj: Kobj<u32> }

impl Task {
    pub fn create() -> Task { Task { obj: Kobj::named("fixture.task.lock", 0) } }
    pub fn suspend(&self) { *self.obj.lock_active().unwrap() += 1; }
    pub fn export(&self, port: &Port) {
        let t = self.obj.lock();
        port.enqueue();
        drop(t);
    }
}

impl Port {
    pub fn create() -> Port { Port { obj: Kobj::named("fixture.port.lock", 0) } }
    pub fn enqueue(&self) { *self.obj.lock() += 1; }
    pub fn translate(&self, task: &Task) {
        let p = self.obj.header().lock().lock();
        drop(p);
        task.suspend();
    }
}
