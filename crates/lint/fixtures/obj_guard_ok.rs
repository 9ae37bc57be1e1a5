//! Clean twin of `obj_guard_bad.rs`: under its lock the port only asks
//! its name list for `len()`, which the task also defines (and which
//! takes the task lock). A collection method on guarded data joins no
//! same-named function, so there is no port → task edge.
//! Expected: clean.

use machk_core::Kobj;

pub struct Task { obj: Kobj<Vec<u32>> }
pub struct Port { obj: Kobj<PortState> }
pub struct PortState { names: Vec<u32>, task: Option<Task> }

impl Task {
    pub fn create() -> Task { Task { obj: Kobj::named("fixture.task.lock", Vec::new()) } }
    pub fn len(&self) -> usize { self.obj.lock().len() }
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
    pub fn translate(&self) -> usize {
        let s = self.obj.lock();
        s.names.len()
    }
}
