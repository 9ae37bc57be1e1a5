//! Fixture: a port whose state holds a task calls into that task
//! through its own guard, while the task reaches the port under the
//! task lock. A call on guarded data is an edge to its callee unless it
//! is a collection method, so the ABBA is reported.
//! Expected: one `lock-order-cycle` over the registered names.

use machk_core::Kobj;

pub struct Task { obj: Kobj<u32> }
pub struct Port { obj: Kobj<PortState> }
pub struct PortState { names: Vec<u32>, task: Option<Task> }

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
    pub fn create() -> Port {
        Port { obj: Kobj::named("fixture.port.lock", PortState { names: Vec::new(), task: None }) }
    }
    pub fn enqueue(&self) { *self.obj.lock().names.first_mut().unwrap() += 1; }
    pub fn translate(&self) {
        let s = self.obj.lock();
        s.task.as_ref().unwrap().suspend();
        drop(s);
    }
}
