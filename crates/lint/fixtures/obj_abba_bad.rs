//! Fixture: two kernel objects' locks taken in both orders. Both types
//! hold their object lock in a field named `obj`, so the two nodes stay
//! apart only because object lock names are recorded per type.
//! Expected: one `lock-order-cycle` over the registered names.

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
        task.suspend();
        drop(p);
    }
}
