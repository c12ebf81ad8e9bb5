//! Stackful coroutines: the execution contexts simulation processes run on.
//! Each process gets a lazily-committed stack of its own, and passing the
//! execution token is one [`switch`] — callee-saved registers and the stack
//! pointer — on the thread inside `Sim::run`. The workspace's only `unsafe`
//! lives in this module.
//!
//! Stacks are carved out of [`Chunk`] mappings, [`CHUNK_STACKS`] to a
//! chunk: one `mmap` and one `munmap` per chunk, and per stack one
//! `mprotect` that opens it up and leaves the page below it `PROT_NONE`.
//! A finished context's stack goes to the next `spawn`; chunks go back to
//! the OS when the table drops. The guard pages keep the mappings at two
//! per stack, so `vm.max_map_count` (65 530 by default) still ends a run
//! near 32 k live processes — as an error from `spawn`, like a refused
//! `mmap` under an address-space limit.
//!
//! [`Contexts`] is the whole interface: `spawn` seeds a stack so that its
//! first activation enters the body, `switch_to` suspends the running
//! context and resumes another (`None` is the root: the caller of
//! `Sim::run`), a body's return value names the context that runs once it
//! is over, and `unwind_all` ends the still-suspended ones.
//!
//! The invariant every `unsafe` block leans on is the engine's execution
//! token: one context runs at a time, and only the running one calls in
//! here. `Sim::run` takes the simulation by value and `SimCtx` is neither
//! `Sync` nor handed out except by reference to the running body, so safe
//! code has no way to break it.

use std::cell::UnsafeCell;
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::ptr;

/// Usable bytes per stack. Processes are shallow (a closure and a few
/// library frames) and 1000-node runs have thousands, so pages are only
/// committed as they are touched.
const STACK_BYTES: usize = 1 << 20;
/// The `PROT_NONE` page below each stack. Frames larger than a page probe
/// every page on the way down, so an overflow faults here — a plain
/// `SIGSEGV` (std's "stack overflow" report only knows thread stacks).
const GUARD_BYTES: usize = 4096;
/// A guard page and the stack above it.
const SLOT_BYTES: usize = GUARD_BYTES + STACK_BYTES;
/// Stacks per chunk mapping: enough that a thousand-node job makes a few
/// dozen mappings, not so many that a two-process one reserves more than
/// 64 MiB of address space.
const CHUNK_STACKS: usize = 64;

const PROT_NONE: i32 = 0;
const PROT_READ_WRITE: i32 = 1 | 2;
const MAP_PRIVATE_ANON_NORESERVE: i32 = 0x02 | 0x20 | 0x4000;

extern "C" {
    fn mmap(addr: *mut u8, len: usize, prot: i32, flags: i32, fd: i32, offset: i64) -> *mut u8;
    fn mprotect(addr: *mut u8, len: usize, prot: i32) -> i32;
    fn munmap(addr: *mut u8, len: usize) -> i32;
}

#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
compile_error!(
    "simtime's coroutines need a context switch for this target: add a `switch` \
     (and its `enter` trampoline and initial frame) to crates/simtime/src/coro.rs"
);

/// Saves the callee-saved registers and stack pointer of the running
/// context to `*save`, then restores those saved at `next` and returns
/// there. Returns (to the caller) when someone switches back to `*save`.
///
/// # Safety
///
/// `save` is valid for a write; `next` was written by an earlier `switch`
/// or by [`Contexts::spawn`], has not been resumed since, and its stack is
/// still mapped; the caller's stack stays mapped until it is resumed.
#[unsafe(naked)]
unsafe extern "C" fn switch(save: *mut *mut u8, next: *mut u8) {
    std::arch::naked_asm!(
        "push rbp",
        "push rbx",
        "push r12",
        "push r13",
        "push r14",
        "push r15",
        "mov [rdi], rsp",
        "mov rsp, rsi",
        "pop r15",
        "pop r14",
        "pop r13",
        "pop r12",
        "pop rbx",
        "pop rbp",
        "ret",
    )
}

/// Where a fresh context's first `switch` returns to: `r12` carries the
/// argument and `rsp` points at a null return address, 8 bytes below a
/// 16-byte boundary — exactly the state after a `call base`.
#[unsafe(naked)]
unsafe extern "C" fn enter() {
    std::arch::naked_asm!("mov rdi, r12", "jmp {base}", base = sym base)
}

/// One `PROT_NONE` mapping of [`CHUNK_STACKS`] slots, the first `carved`
/// of which have had their stack made writable.
struct Chunk {
    base: *mut u8,
    carved: usize,
}

impl Chunk {
    fn map() -> io::Result<Chunk> {
        // SAFETY: a fresh anonymous mapping aliases nothing.
        let base = unsafe {
            mmap(
                ptr::null_mut(),
                CHUNK_STACKS * SLOT_BYTES,
                PROT_NONE,
                MAP_PRIVATE_ANON_NORESERVE,
                -1,
                0,
            )
        };
        if base as isize == -1 {
            return Err(io::Error::last_os_error());
        }
        Ok(Chunk { base, carved: 0 })
    }

    /// Opens up the stack of the next slot, which must exist; the slot's
    /// guard page stays as mapped.
    fn carve(&mut self) -> io::Result<Stack> {
        assert!(self.carved < CHUNK_STACKS, "the chunk is used up");
        // SAFETY: slot `carved` lies inside the mapping, and so does the
        // range the `mprotect` covers: the slot less its guard page.
        let slot = unsafe {
            let slot = self.base.add(self.carved * SLOT_BYTES);
            if mprotect(slot.add(GUARD_BYTES), STACK_BYTES, PROT_READ_WRITE) != 0 {
                return Err(io::Error::last_os_error());
            }
            slot
        };
        self.carved += 1;
        #[cfg(test)]
        LIVE_STACKS.with(|n| n.set(n.get() + 1));
        Ok(Stack(slot))
    }
}

impl Drop for Chunk {
    fn drop(&mut self) {
        #[cfg(test)]
        LIVE_STACKS.with(|n| n.set(n.get() - self.carved as isize));
        // SAFETY: the mapping is ours, whole, and nobody stands on it: a
        // chunk goes with its table, which the root drops — `Sim::run`
        // keeps the table alive past the last context it unwinds — and the
        // contexts left on these stacks will never be resumed.
        unsafe { munmap(self.base, CHUNK_STACKS * SLOT_BYTES) };
    }
}

/// A slot of a [`Chunk`]: guard page at the bottom, `STACK_BYTES` above it.
/// Held by one context, or by `zombie` or `idle`, and valid as long as the
/// table's chunks are.
struct Stack(*mut u8);

impl Stack {
    /// Writes the frame a first `switch` pops — six zeroed registers but
    /// for `r12 = arg`, `enter`, a null return address — and returns the
    /// stack pointer to resume.
    fn seed(&self, arg: *const Table) -> *mut u8 {
        let frame: [usize; 8] = [0, 0, 0, arg as usize, 0, 0, enter as *const () as usize, 0];
        // SAFETY: the top of the slot is page-aligned, so the frame is in
        // bounds and aligned and ends on a 16-byte boundary; nothing runs
        // on this stack.
        unsafe {
            let top = self.0.add(SLOT_BYTES);
            let sp = top.cast::<[usize; 8]>().sub(1);
            sp.write(frame);
            sp.cast()
        }
    }
}

#[cfg(test)]
thread_local! {
    /// Stacks carved minus stacks unmapped by this thread.
    static LIVE_STACKS: std::cell::Cell<isize> = const { std::cell::Cell::new(0) };
    /// Chunks a table on this thread may map before the mapper reports
    /// `ENOMEM`, standing in for the OS limits.
    static CHUNK_CAP: std::cell::Cell<usize> = const { std::cell::Cell::new(usize::MAX) };
}

/// Runs `f` with this thread's tables capped at `chunks` chunk mappings.
#[cfg(test)]
pub(crate) fn with_chunk_cap<R>(chunks: usize, f: impl FnOnce() -> R) -> R {
    let before = CHUNK_CAP.with(|c| c.replace(chunks));
    let r = f();
    CHUNK_CAP.with(|c| c.set(before));
    r
}

/// Stacks currently mapped, as seen from the calling thread: exact for a
/// test that builds, runs and drops its simulations on one thread.
#[cfg(test)]
pub(crate) fn live_stacks() -> isize {
    LIVE_STACKS.with(|n| n.get())
}

/// A coroutine body: runs on its own stack and returns the context to
/// resume once it is over (`None`: the root).
pub(crate) type Body = Box<dyn FnOnce() -> Option<usize> + Send>;

/// Why [`Contexts::switch_to`] returned.
#[derive(Debug, PartialEq)]
#[must_use]
pub(crate) enum Resumed {
    /// Handed the token: carry on.
    Run,
    /// [`Contexts::unwind_all`] wants this context gone: unwind to the
    /// body's frame and return from it.
    Unwind,
}

struct Slot {
    /// Where to resume; null while running and once finished.
    sp: *mut u8,
    /// Taken on first activation.
    body: Option<Body>,
    /// Moved to `zombie` when the body returns.
    stack: Option<Stack>,
}

struct Inner {
    slots: Vec<Slot>,
    /// The running context; `None` is the root.
    current: Option<usize>,
    root_sp: *mut u8,
    /// The stack of the context that finished last — possibly still stood
    /// on, so only the next `spawn` or finish moves it to `idle`.
    zombie: Option<Stack>,
    /// Stacks of finished contexts, for the next `spawn`.
    idle: Vec<Stack>,
    /// Every stack above points into one of these; only the last can have
    /// slots left to carve.
    chunks: Vec<Chunk>,
    unwinding: bool,
}

type Table = UnsafeCell<Inner>;

/// The contexts of one simulation: the root and one coroutine per process,
/// indexed in spawn order. Boxed so the address seeded into fresh stacks
/// is stable.
pub(crate) struct Contexts(Box<Table>);

// SAFETY: a suspended context and the chunk it lives in are plain memory,
// and a body that has not started is a `Send` closure, so the table may
// move between threads while nothing runs (tests build a `Sim` on one
// thread and run it on another).
// Once `switch_to` has started a context, the table is only touched by the
// token holder on the one thread inside `Sim::run` (module docs), which is
// what lets `&Contexts` be shared with every process.
unsafe impl Send for Contexts {}
// SAFETY: as above.
unsafe impl Sync for Contexts {}

impl Contexts {
    pub(crate) fn new() -> Self {
        Contexts(Box::new(UnsafeCell::new(Inner {
            slots: Vec::new(),
            current: None,
            root_sp: ptr::null_mut(),
            zombie: None,
            idle: Vec::new(),
            chunks: Vec::new(),
            unwinding: false,
        })))
    }

    /// Adds a context that will run `body` when first switched to, on a
    /// recycled stack if one is idle. Returns its index, or the error of
    /// the `mmap` or `mprotect` that refused a new stack — in which case
    /// `body` is dropped and the table is as it was.
    pub(crate) fn spawn(&self, body: Body) -> io::Result<usize> {
        // SAFETY: the token holder has exclusive access, and no reference
        // into the table outlives a call.
        let inner = unsafe { &mut *self.0.get() };
        let stack = inner.take_stack()?;
        let sp = stack.seed(&*self.0);
        inner.slots.push(Slot {
            sp,
            body: Some(body),
            stack: Some(stack),
        });
        Ok(inner.slots.len() - 1)
    }

    /// Suspends the running context and resumes `next`; returns when some
    /// context switches back to this one.
    pub(crate) fn switch_to(&self, next: Option<usize>) -> Resumed {
        let (save, next_sp) = {
            // SAFETY: exclusive access as in `spawn`; the borrow ends
            // before any other context runs.
            let inner = unsafe { &mut *self.0.get() };
            let me = inner.current;
            let next_sp = inner.resume(next);
            let save: *mut *mut u8 = match me {
                Some(me) => &mut inner.slots[me].sp,
                None => &mut inner.root_sp,
            };
            (save, next_sp)
        };
        // SAFETY: `resume` hands out each saved stack pointer once;
        // `save` points into the table, which nothing has touched since,
        // and is written before another context runs; both stacks stay
        // mapped, since only finished contexts give theirs up.
        unsafe { switch(save, next_sp) };
        // SAFETY: resumed, so this context holds the token again.
        let inner = unsafe { &*self.0.get() };
        match inner.current {
            Some(_) if inner.unwinding => Resumed::Unwind,
            _ => Resumed::Run,
        }
    }

    /// Ends every started, still-suspended context: each is resumed with
    /// [`Resumed::Unwind`], unwinds to its body, and its body's return
    /// brings the root back. Root only. Bodies that never started are
    /// dropped with the table.
    pub(crate) fn unwind_all(&self) {
        let mut i = 0;
        loop {
            // SAFETY: exclusive access as in `spawn`; the borrow ends
            // before the `switch_to`.
            let inner = unsafe { &mut *self.0.get() };
            assert!(inner.current.is_none(), "only the root ends the others");
            inner.unwinding = true;
            let Some(slot) = inner.slots.get(i) else {
                return;
            };
            if slot.body.is_none() && !slot.sp.is_null() {
                let _ = self.switch_to(Some(i));
            }
            i += 1;
        }
    }
}

impl Inner {
    /// An idle stack, or one carved from the last chunk, or the first of a
    /// new chunk.
    fn take_stack(&mut self) -> io::Result<Stack> {
        self.idle.extend(self.zombie.take());
        if let Some(stack) = self.idle.pop() {
            return Ok(stack);
        }
        if self.chunks.last().is_none_or(|c| c.carved == CHUNK_STACKS) {
            #[cfg(test)]
            if self.chunks.len() >= CHUNK_CAP.with(|c| c.get()) {
                return Err(io::Error::from_raw_os_error(12)); // ENOMEM
            }
            self.chunks.push(Chunk::map()?);
        }
        self.chunks.last_mut().expect("pushed if absent").carve()
    }

    /// Takes the saved stack pointer of `next`, which must be suspended,
    /// and makes `next` the running context.
    fn resume(&mut self, next: Option<usize>) -> *mut u8 {
        let sp = match next {
            Some(i) => &mut self.slots[i].sp,
            None => &mut self.root_sp,
        };
        assert!(!sp.is_null(), "context {next:?} is running or finished");
        self.current = next;
        std::mem::replace(sp, ptr::null_mut())
    }
}

/// The bottom frame of every coroutine: runs the body, then leaves this
/// stack for good. Its return address is null, so backtraces end here, and
/// no unwind gets past it.
unsafe extern "C" fn base(table: *const Table) -> ! {
    // SAFETY: `enter` passes the pointer `spawn` seeded. The table is
    // boxed and borrowed by the `switch_to` that started this context, so
    // it is alive, and the running context has exclusive access.
    let inner = unsafe { &mut *(*table).get() };
    let me = inner.current.expect("the root has no base frame");
    let body = inner.slots[me].body.take().expect("first activation");
    // The body and all it owns are gone before the final switch.
    let next = catch_unwind(AssertUnwindSafe(body)).unwrap_or_else(|_| {
        eprintln!("simtime: a panic reached the base of a coroutine");
        std::process::abort()
    });
    // SAFETY: as above; the borrow taken before the body ran is dead.
    let inner = unsafe { &mut *(*table).get() };
    // Nobody unmaps or reuses `zombie` before another context runs.
    let stack = inner.slots[me].stack.take().expect("own stack");
    inner.idle.extend(inner.zombie.replace(stack));
    let next_sp = inner.resume(next);
    let mut dead = ptr::null_mut();
    // SAFETY: `next_sp` as in `switch_to`; `dead` receives a stack pointer
    // nobody will resume.
    unsafe { switch(&mut dead, next_sp) };
    unreachable!("a finished context was resumed")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hint::black_box;
    use std::panic::resume_unwind;
    use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
    use std::sync::Arc;

    /// Spawns a context whose body can switch through the table it is on.
    fn spawn(
        table: &Arc<Contexts>,
        body: impl FnOnce(&Contexts) -> Option<usize> + Send + 'static,
    ) -> usize {
        let t = table.clone();
        table.spawn(Box::new(move || body(&t))).expect("a stack")
    }

    /// Sets its flag when dropped.
    struct Flag(Arc<AtomicU64>);
    impl Drop for Flag {
        fn drop(&mut self) {
            self.0.fetch_add(1, Relaxed);
        }
    }

    #[test]
    fn first_activation_runs_the_body_exactly_once() {
        let table = Arc::new(Contexts::new());
        let runs = Arc::new(AtomicU64::new(0));
        let r = runs.clone();
        let c = spawn(&table, move |_| {
            r.fetch_add(1, Relaxed);
            None
        });
        assert_eq!(runs.load(Relaxed), 0, "spawning runs nothing");
        assert_eq!(table.switch_to(Some(c)), Resumed::Run);
        assert_eq!(runs.load(Relaxed), 1);
        // A finished context is not resumable, and saying so leaves the
        // table usable.
        let again = catch_unwind(AssertUnwindSafe(|| table.switch_to(Some(c))));
        assert!(again.is_err());
        let d = spawn(&table, |_| None);
        assert_eq!(table.switch_to(Some(d)), Resumed::Run);
    }

    #[test]
    fn ping_pong_alternates_for_ten_thousand_rounds() {
        const ROUNDS: u64 = 10_000;
        let table = Arc::new(Contexts::new());
        let (pings, pongs) = (Arc::new(AtomicU64::new(0)), Arc::new(AtomicU64::new(0)));
        let (a_pings, a_pongs) = (pings.clone(), pongs.clone());
        let a = spawn(&table, move |t| {
            for round in 0..ROUNDS {
                assert_eq!(a_pongs.load(Relaxed), round);
                a_pings.fetch_add(1, Relaxed);
                assert_eq!(t.switch_to(Some(1)), Resumed::Run);
            }
            Some(1)
        });
        let (b_pings, b_pongs) = (pings.clone(), pongs.clone());
        let b = spawn(&table, move |t| {
            for round in 0..ROUNDS {
                assert_eq!(b_pings.load(Relaxed), round + 1);
                b_pongs.fetch_add(1, Relaxed);
                assert_eq!(t.switch_to(Some(0)), Resumed::Run);
            }
            None
        });
        assert_eq!((a, b), (0, 1));
        let _ = table.switch_to(Some(a));
        assert_eq!((pings.load(Relaxed), pongs.load(Relaxed)), (ROUNDS, ROUNDS));
    }

    #[test]
    fn locals_floats_and_a_catch_unwind_scope_survive_switches() {
        fn step(x: f64, i: u32) -> f64 {
            x * 1.5 + f64::from(i).sqrt()
        }
        let table = Arc::new(Contexts::new());
        let c = spawn(&table, |t| {
            let mut acc = 0.5f64;
            let text = String::from("kept");
            let caught = catch_unwind(AssertUnwindSafe(|| {
                for i in 0..100 {
                    acc = step(acc, i);
                    let _ = t.switch_to(None);
                }
                resume_unwind(Box::new(7u8))
            }));
            assert_eq!(caught.unwrap_err().downcast_ref::<u8>(), Some(&7));
            assert_eq!(acc, (0..100).fold(0.5, step));
            assert_eq!(text, "kept");
            None
        });
        let mut mine = 2.0f64;
        for i in 0..100 {
            let _ = table.switch_to(Some(c));
            mine = step(mine, i);
        }
        let _ = table.switch_to(Some(c)); // out of the loop, to the end
        assert_eq!(mine, (0..100).fold(2.0, step));
    }

    #[test]
    fn a_body_may_use_more_than_half_its_stack() {
        /// Recurses until `want` bytes lie between `top` and its own frame.
        #[inline(never)]
        fn descend(top: usize, want: usize) -> usize {
            let pad = black_box([0u8; 512]);
            let used = top - pad.as_ptr() as usize;
            if used >= want {
                used
            } else {
                black_box(descend(top, want))
            }
        }
        let table = Arc::new(Contexts::new());
        let used = Arc::new(AtomicU64::new(0));
        let u = used.clone();
        let c = spawn(&table, move |_| {
            let top = black_box([0u8; 8]);
            u.store(descend(top.as_ptr() as usize, 600 << 10) as u64, Relaxed);
            None
        });
        let _ = table.switch_to(Some(c));
        assert!(used.load(Relaxed) >= 600 << 10);
    }

    #[test]
    fn a_finished_stack_is_reused_and_all_are_unmapped_with_the_table() {
        let table = Arc::new(Contexts::new());
        let first = spawn(&table, |_| None);
        assert_eq!(live_stacks(), 1);
        let _ = table.switch_to(Some(first));
        // Finished, but nobody has had a chance to take the stack yet.
        assert_eq!(live_stacks(), 1);
        let runs = Arc::new(AtomicU64::new(0));
        let r = runs.clone();
        let second = spawn(&table, move |_| {
            r.fetch_add(1, Relaxed);
            None
        });
        assert_eq!(
            live_stacks(),
            1,
            "the second context stands on the first's stack"
        );
        let third = spawn(&table, |_| None);
        assert_eq!(live_stacks(), 2);
        let _ = table.switch_to(Some(second));
        let _ = table.switch_to(Some(third));
        assert_eq!(runs.load(Relaxed), 1);
        drop(table);
        assert_eq!(live_stacks(), 0);
    }

    /// The bottom of every live context's stack (the address just above
    /// its guard page), and the number of chunks mapped.
    fn stack_bottoms(table: &Contexts) -> (Vec<usize>, usize) {
        // SAFETY: the test holds the token: no context is running.
        let inner = unsafe { &*table.0.get() };
        let bottoms = (inner.slots.iter())
            .filter_map(|slot| slot.stack.as_ref())
            .map(|stack| stack.0 as usize + GUARD_BYTES)
            .collect();
        (bottoms, inner.chunks.len())
    }

    /// The permissions of the mapping holding `addr`, and where that
    /// mapping starts, from `/proc/self/maps`.
    fn mapping_at(maps: &str, addr: usize) -> (usize, &str) {
        maps.lines()
            .find_map(|line| {
                let (range, rest) = line.split_once(' ')?;
                let (start, end) = range.split_once('-')?;
                let start = usize::from_str_radix(start, 16).ok()?;
                let end = usize::from_str_radix(end, 16).ok()?;
                (start..end)
                    .contains(&addr)
                    .then(|| (start, rest.split(' ').next().unwrap_or("")))
            })
            .unwrap_or_else(|| panic!("{addr:#x} is not mapped"))
    }

    #[test]
    fn stacks_are_carved_from_chunks_each_over_a_guard_page_and_reused() {
        const N: usize = 2 * CHUNK_STACKS + 3;
        let table = Arc::new(Contexts::new());
        let first: Vec<usize> = (0..N).map(|_| spawn(&table, |_| None)).collect();
        let (bottoms, chunks) = stack_bottoms(&table);
        assert_eq!((live_stacks(), bottoms.len(), chunks), (N as isize, N, 3));

        // Every stack is its own read-write mapping, and the page directly
        // below it is not accessible.
        let maps = std::fs::read_to_string("/proc/self/maps").expect("Linux");
        for &bottom in &bottoms {
            assert_eq!(mapping_at(&maps, bottom), (bottom, "rw-p"));
            assert_eq!(mapping_at(&maps, bottom + STACK_BYTES - 1).1, "rw-p");
            assert_eq!(mapping_at(&maps, bottom - 1).1, "---p");
        }

        // Finished stacks go round: a second generation maps nothing new.
        for c in first {
            let _ = table.switch_to(Some(c));
        }
        let second: Vec<usize> = (0..N).map(|_| spawn(&table, |_| None)).collect();
        let (mut again, chunks) = stack_bottoms(&table);
        again.sort_unstable();
        let mut sorted = bottoms.clone();
        sorted.sort_unstable();
        assert_eq!((live_stacks(), chunks), (N as isize, 3));
        assert_eq!(again, sorted);
        // One more than ever lived at once is carved from the last chunk.
        let extra = spawn(&table, |_| None);
        assert_eq!((live_stacks(), stack_bottoms(&table).1), (N as isize + 1, 3));
        for c in second.into_iter().chain([extra]) {
            let _ = table.switch_to(Some(c));
        }
        drop(table);
        assert_eq!(live_stacks(), 0);
    }

    #[test]
    fn a_refused_chunk_is_an_error_that_leaves_the_table_usable() {
        with_chunk_cap(1, || {
            let table = Arc::new(Contexts::new());
            let all: Vec<usize> = (0..CHUNK_STACKS).map(|_| spawn(&table, |_| None)).collect();
            let dropped = Arc::new(AtomicU64::new(0));
            let flag = Flag(dropped.clone());
            let refused = table.spawn(Box::new(move || {
                let _keep = &flag;
                None
            }));
            assert_eq!(refused.map_err(|e| e.raw_os_error()), Err(Some(12)));
            assert_eq!(dropped.load(Relaxed), 1, "the body went with the refusal");
            assert_eq!(live_stacks(), CHUNK_STACKS as isize);
            // A stack that comes free serves the next spawn.
            let _ = table.switch_to(Some(all[0]));
            let next = spawn(&table, |_| None);
            assert_eq!(next, CHUNK_STACKS, "the refused spawn took no index");
            // (Each body holds the table until it has run.)
            for &c in all[1..].iter().chain([&next]) {
                let _ = table.switch_to(Some(c));
            }
        });
        assert_eq!(live_stacks(), 0);
    }

    #[test]
    fn never_started_bodies_are_dropped_with_the_table() {
        let table = Contexts::new();
        let dropped = Arc::new(AtomicU64::new(0));
        for _ in 0..3 {
            let flag = Flag(dropped.clone());
            let spawned = table.spawn(Box::new(move || {
                let _keep = &flag;
                None
            }));
            assert!(spawned.is_ok());
        }
        assert_eq!((live_stacks(), dropped.load(Relaxed)), (3, 0));
        drop(table);
        assert_eq!((live_stacks(), dropped.load(Relaxed)), (0, 3));
    }

    #[test]
    fn unwind_all_ends_the_suspended_and_skips_the_rest() {
        let table = Arc::new(Contexts::new());
        let dropped = Arc::new(AtomicU64::new(0));
        let done = spawn(&table, |_| None);
        let flag = Flag(dropped.clone());
        let waiting = spawn(&table, move |t| {
            let _local = flag;
            assert_eq!(t.switch_to(None), Resumed::Unwind);
            None
        });
        let never = table
            .spawn(Box::new(|| unreachable!("never started")))
            .expect("a stack");
        let _ = table.switch_to(Some(done));
        let _ = table.switch_to(Some(waiting));
        table.unwind_all();
        assert_eq!(dropped.load(Relaxed), 1);
        let again = catch_unwind(AssertUnwindSafe(|| table.switch_to(Some(waiting))));
        assert!(again.is_err(), "unwound means finished");
        assert_eq!(never, 2);
    }

    #[test]
    fn a_panic_in_a_nested_simulation_names_its_own_process() {
        // The inner `Sim::run` is called on a coroutine stack: its root
        // context is the outer process, and the inner panic stops at the
        // inner process's base.
        use crate::{Sim, SimError, SimTime};
        let mut outer = Sim::new();
        outer.spawn("outer", |ctx| {
            ctx.hold(SimTime::from_secs(1));
            let mut inner = Sim::new();
            inner.spawn("inner-idle", |c| c.hold(SimTime::from_secs(9)));
            inner.spawn("inner-bad", |c| {
                c.hold(SimTime::from_secs(1));
                panic!("inner boom");
            });
            match inner.run() {
                Err(SimError::ProcessPanicked { process, message }) => {
                    assert_eq!(
                        (process.as_str(), message.as_str()),
                        ("inner-bad", "inner boom")
                    );
                }
                other => panic!("expected the inner panic, got {other:?}"),
            }
            ctx.hold(SimTime::from_secs(1));
        });
        assert_eq!(outer.run().unwrap().end_time, SimTime::from_secs(2));
    }
}
