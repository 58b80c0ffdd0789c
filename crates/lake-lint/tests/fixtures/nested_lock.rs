//! Fixture: nested acquisitions (rule 6), plus the patterns that must
//! stay silent.

use std::path::Path;

pub struct Pair {
    a: LeafMutex<u64>,
    b: LeafRwLock<u64>,
    queue: LeafMutex<Vec<u64>>,
}

impl Pair {
    pub fn bad_direct(&self) {
        let ga = self.a.lock();
        let gb = self.b.read(); // nested: `b` under `a`
        drop(gb);
        drop(ga);
    }

    pub fn bad_through_callee(&self) {
        let gb = self.b.write();
        self.bump_a(); // nested: `bump_a` takes `a` under `b`
        drop(gb);
    }

    fn bump_a(&self) {
        *self.a.lock() += 1;
    }

    pub fn ok_sequential(&self) -> u64 {
        let ga = self.a.lock();
        let x = *ga;
        drop(ga);
        let y = *self.b.read(); // fine: `a` was released
        x + y
    }

    pub fn ok_declared_pair(&self) {
        let ga = self.a.lock();
        let batch = std::mem::take(&mut *self.queue.lock_inside(&ga)); // fine: declared
        drop(batch);
        drop(ga);
    }

    pub fn ok_path_join(&self, dir: &Path) {
        let ga = self.a.lock();
        let _p = dir.join("x"); // fine: `Path::join`, not `Handle::join`
        drop(ga);
    }
}

pub struct Handle {
    running: LeafMutex<usize>,
}

impl Handle {
    /// Shares its name with `Path::join`; resolving the call above here
    /// would report a lock `Path::join` never takes.
    pub fn join(&self) {
        *self.running.lock() = 0;
    }
}
