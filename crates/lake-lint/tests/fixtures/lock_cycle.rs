//! Fixture: lock-order violations — a rank inversion that also closes a
//! two-lock cycle.

mod rank {
    pub const ALPHA: u32 = 10;
    pub const BETA: u32 = 20;
}

pub struct Pair {
    a: OrderedMutex<u64>,
    b: OrderedMutex<u64>,
}

impl Pair {
    pub fn new() -> Pair {
        Pair {
            a: OrderedMutex::new(0, rank::ALPHA, "fixture.a"),
            b: OrderedMutex::new(0, rank::BETA, "fixture.b"),
        }
    }

    pub fn forward(&self) {
        let ga = self.a.lock();
        let gb = self.b.lock(); // fine: 10 -> 20 ascends
        drop(gb);
        drop(ga);
    }

    pub fn backward(&self) {
        let gb = self.b.lock();
        let ga = self.a.lock(); // inversion: 20 -> 10, and closes the a<->b cycle
        drop(ga);
        drop(gb);
    }
}
