//! Stackful coroutines: the execution contexts simulation processes run on.
//! Each process gets a lazily-committed stack of its own, and passing the
//! execution token is one [`switch`] — callee-saved registers and the stack
//! pointer — on the thread inside `Sim::run`. The workspace's only `unsafe`
//! lives in this module.
//!
//! Stacks are carved out of [`Chunk`] mappings, [`CHUNK_STACKS`] to a
//! chunk: one `mmap` per chunk, and per stack one `mprotect` that opens it
//! up and leaves the page below it `PROT_NONE`. A finished context's stack
//! goes to the next `spawn`. When the table drops, its chunks go to the
//! thread's pool, opened stacks and guard pages as they are, after one
//! `madvise(MADV_DONTNEED)` each gives their pages back to the OS; the
//! next table on the thread takes a pooled chunk before it maps one, and
//! reopens none of its stacks. A pooled chunk is unmapped when its
//! thread exits. The guard pages keep the mappings at two per stack, so
//! `vm.max_map_count` (65 530 by default) still ends a run near 32 k live
//! processes — as an error from `spawn`, like a refused `mmap` under an
//! address-space limit.
//!
//! [`Contexts`] is the whole interface: `spawn` seeds a stack so that its
//! first activation enters the body, `switch_to` suspends the running
//! context and resumes another (`None` is the root: the caller of
//! `Sim::run`), a body's return value names the context that runs once it
//! is over, and `unwind_all` ends the still-suspended ones. A slot may
//! instead hold a stackless [`Task`] (`spawn_task`): it is never switched
//! to, only taken out, polled by whoever runs the event loop and put back.
//!
//! The invariant every `unsafe` block leans on is the engine's execution
//! token: one context runs at a time, and only the running one calls in
//! here. `Sim::run` takes the simulation by value and `SimCtx` is neither
//! `Sync` nor handed out except by reference to the running body, so safe
//! code has no way to break it.

use std::cell::{RefCell, UnsafeCell};
use std::future::Future;
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::pin::Pin;
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
const MADV_DONTNEED: i32 = 4;

extern "C" {
    fn mmap(addr: *mut u8, len: usize, prot: i32, flags: i32, fd: i32, offset: i64) -> *mut u8;
    fn mprotect(addr: *mut u8, len: usize, prot: i32) -> i32;
    fn madvise(addr: *mut u8, len: usize, advice: i32) -> i32;
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

/// One `PROT_NONE` mapping of [`CHUNK_STACKS`] slots. The first `opened`
/// have had their stack made writable, and the first `used` of those are
/// handed out to the table that holds the chunk.
struct Chunk {
    base: *mut u8,
    opened: usize,
    used: usize,
    #[cfg(test)]
    id: u64,
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
        #[cfg(test)]
        MAPPED_CHUNKS.with(|n| n.set(n.get() + 1));
        Ok(Chunk {
            base,
            opened: 0,
            used: 0,
            #[cfg(test)]
            id: NEXT_CHUNK_ID.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
        })
    }

    /// Hands out the stack of the next slot, which must exist, opening it
    /// up first unless an earlier table did; the slot's guard page stays
    /// as mapped.
    fn take(&mut self) -> io::Result<Stack> {
        assert!(self.used < CHUNK_STACKS, "the chunk is used up");
        // SAFETY: slot `used` lies inside the mapping, and so does the
        // range the `mprotect` covers: the slot less its guard page.
        let slot = unsafe {
            let slot = self.base.add(self.used * SLOT_BYTES);
            if self.used == self.opened {
                if mprotect(slot.add(GUARD_BYTES), STACK_BYTES, PROT_READ_WRITE) != 0 {
                    return Err(io::Error::last_os_error());
                }
                self.opened += 1;
            }
            slot
        };
        self.used += 1;
        #[cfg(test)]
        LIVE_STACKS.with(|n| n.set(n.get() + 1));
        Ok(Stack(slot))
    }

    /// Readies a dropped table's chunk for the pool: the pages of its
    /// opened stacks go back to the OS, and its slots to the next table.
    /// `None` if the pages could not be dropped (the chunk is unmapped).
    fn clear(mut self) -> Option<Chunk> {
        #[cfg(test)]
        let _ = LIVE_STACKS.try_with(|n| n.set(n.get() - self.used as isize));
        self.used = 0;
        // SAFETY: the range is the chunk's opened slots, inside the
        // mapping, and nobody stands on it: the table that held the chunk
        // is dropping, which the root does only once no context of it can
        // run again (see `Drop for Chunk`). The pages read as zeros when
        // touched next, as in a fresh mapping.
        let dropped = unsafe { madvise(self.base, self.opened * SLOT_BYTES, MADV_DONTNEED) };
        (dropped == 0).then_some(self)
    }
}

impl Drop for Chunk {
    fn drop(&mut self) {
        #[cfg(test)]
        {
            let _ = LIVE_STACKS.try_with(|n| n.set(n.get() - self.used as isize));
            let _ = MAPPED_CHUNKS.try_with(|n| n.set(n.get() - 1));
            if let Ok(mut unmapped) = UNMAPPED_CHUNKS.lock() {
                unmapped.push(self.id);
            }
        }
        // SAFETY: the mapping is ours, whole, and nobody stands on it: a
        // chunk is held by one table or by its thread's pool, never both.
        // The root drops a table — `Sim::run` keeps it alive past the last
        // context it unwinds — and the contexts left on its stacks will
        // never be resumed; a pooled chunk has no context on it at all.
        unsafe { munmap(self.base, CHUNK_STACKS * SLOT_BYTES) };
    }
}

thread_local! {
    /// Chunks of this thread's dropped tables, their pages given back, for
    /// the next table to take; unmapped when the thread exits.
    static POOL: RefCell<Vec<Chunk>> = const { RefCell::new(Vec::new()) };
}

/// Sends a dropped table's chunks to this thread's pool, first chunk on
/// top, so a table of the same shape takes them back in order. Unmaps
/// them instead while the thread is tearing down its pool.
fn pool(chunks: Vec<Chunk>) {
    let mut chunks = Some(chunks);
    let _ = POOL.try_with(|pool| {
        let chunks = chunks.take().into_iter().flatten().rev();
        pool.borrow_mut().extend(chunks.filter_map(Chunk::clear));
    });
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
    /// Stacks handed out to tables on this thread, minus those given back
    /// with their chunk.
    static LIVE_STACKS: std::cell::Cell<isize> = const { std::cell::Cell::new(0) };
    /// Chunks mapped minus chunks unmapped by this thread.
    static MAPPED_CHUNKS: std::cell::Cell<isize> = const { std::cell::Cell::new(0) };
    /// Chunks a table on this thread may hold — mapped or taken from the
    /// pool — before taking one more reports `ENOMEM`, standing in for
    /// the OS limits.
    static CHUNK_CAP: std::cell::Cell<usize> = const { std::cell::Cell::new(usize::MAX) };
}

/// Names every chunk mapped, so a test can tell its own from another
/// thread's at the same address.
#[cfg(test)]
static NEXT_CHUNK_ID: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
/// The ids of the chunks unmapped so far, by any thread.
#[cfg(test)]
static UNMAPPED_CHUNKS: std::sync::Mutex<Vec<u64>> = std::sync::Mutex::new(Vec::new());

/// Runs `f` with this thread's tables capped at `chunks` chunks.
#[cfg(test)]
pub(crate) fn with_chunk_cap<R>(chunks: usize, f: impl FnOnce() -> R) -> R {
    let before = CHUNK_CAP.with(|c| c.replace(chunks));
    let r = f();
    CHUNK_CAP.with(|c| c.set(before));
    r
}

/// Stacks held by tables, as seen from the calling thread: exact for a
/// test that builds, runs and drops its simulations on one thread.
#[cfg(test)]
pub(crate) fn live_stacks() -> isize {
    LIVE_STACKS.with(|n| n.get())
}

/// Chunks this thread has mapped and not unmapped, pooled ones included.
#[cfg(test)]
pub(crate) fn mapped_chunks() -> isize {
    MAPPED_CHUNKS.with(|n| n.get())
}

/// A coroutine body: runs on its own stack and returns the context to
/// resume once it is over (`None`: the root).
pub(crate) type Body = Box<dyn FnOnce() -> Option<usize> + Send>;

/// A started task: polled until it completes.
pub(crate) type TaskFuture = Pin<Box<dyn Future<Output = ()>>>;

/// A stackless context. Until its first activation it is a `Send` closure
/// that builds the future; from then on, the future.
pub(crate) enum Task {
    /// Builds the future on the first activation.
    Unstarted(Box<dyn FnOnce() -> TaskFuture + Send>),
    /// Polled on each activation after the first.
    Started(TaskFuture),
}

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
    /// A task's, out of the slot while it is polled; every other field
    /// of a task's slot stays empty.
    task: Option<Task>,
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
    /// slots left to hand out.
    chunks: Vec<Chunk>,
    unwinding: bool,
}

type Table = UnsafeCell<Inner>;

/// The contexts of one simulation: the root and one coroutine per process,
/// indexed in spawn order. Boxed so the address seeded into fresh stacks
/// is stable.
pub(crate) struct Contexts(Box<Table>);

// SAFETY: a suspended context and the chunk it lives in are plain memory,
// and a body or task that has not started is a `Send` closure, so the
// table may move between threads while nothing runs (tests build a `Sim`
// on one thread and run it on another).
// Once `switch_to` has started a context, the table is only touched by the
// token holder on the one thread inside `Sim::run` (module docs), which is
// what lets `&Contexts` be shared with every process. A started task's
// future, which need not be `Send`, is likewise only built, polled and
// dropped on that thread, and `unwind_all` drops every task before
// `Sim::run` returns.
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

    /// Runs `f` on the table; `f` neither calls back into the table nor
    /// drops anything that could.
    fn with_inner<R>(&self, f: impl FnOnce(&mut Inner) -> R) -> R {
        // SAFETY: the token holder has exclusive access, and the borrow
        // lives only as long as `f`, which never re-enters the table.
        f(unsafe { &mut *self.0.get() })
    }

    /// Adds a context that will run `body` when first switched to, on a
    /// recycled stack if one is idle. Returns its index, or the error of
    /// the `mmap` or `mprotect` that refused a new stack — in which case
    /// `body` is dropped and the table is as it was.
    pub(crate) fn spawn(&self, body: Body) -> io::Result<usize> {
        let table: *const Table = &*self.0;
        let stack = self.with_inner(Inner::take_stack)?;
        let sp = stack.seed(table);
        Ok(self.with_inner(|inner| {
            inner.slots.push(Slot {
                sp,
                body: Some(body),
                stack: Some(stack),
                task: None,
            });
            inner.slots.len() - 1
        }))
    }

    /// Adds a stackless context that `build` turns into a future on its
    /// first activation. Returns its index.
    pub(crate) fn spawn_task(&self, build: Box<dyn FnOnce() -> TaskFuture + Send>) -> usize {
        self.with_inner(|inner| {
            inner.slots.push(Slot {
                sp: ptr::null_mut(),
                body: None,
                stack: None,
                task: Some(Task::Unstarted(build)),
            });
            inner.slots.len() - 1
        })
    }

    /// Takes context `i`'s task out for polling; `None` for a stackful
    /// context (or a task that is gone).
    pub(crate) fn take_task(&self, i: usize) -> Option<Task> {
        self.with_inner(|inner| inner.slots[i].task.take())
    }

    /// Puts back the future of the task taken out of context `i`.
    pub(crate) fn put_task(&self, i: usize, future: TaskFuture) {
        let taken = self.with_inner(|inner| inner.slots[i].task.replace(Task::Started(future)));
        assert!(taken.is_none(), "context {i} held a task while it was polled");
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
    /// brings the root back. Then drops every task, started or not, after
    /// taking it out of the table. Root only. Bodies that never started
    /// are dropped with the table.
    pub(crate) fn unwind_all(&self) {
        let mut i = 0;
        loop {
            let suspended = self.with_inner(|inner| {
                assert!(inner.current.is_none(), "only the root ends the others");
                inner.unwinding = true;
                let slot = inner.slots.get(i)?;
                Some(slot.body.is_none() && !slot.sp.is_null())
            });
            match suspended {
                Some(true) => {
                    let _ = self.switch_to(Some(i));
                }
                Some(false) => {}
                None => break,
            }
            i += 1;
        }
        let tasks: Vec<Task> =
            self.with_inner(|inner| inner.slots.iter_mut().filter_map(|s| s.task.take()).collect());
        drop(tasks);
    }
}

impl Drop for Inner {
    fn drop(&mut self) {
        pool(std::mem::take(&mut self.chunks));
    }
}

impl Inner {
    /// An idle stack, or the next of the last chunk, or the first of a
    /// pooled chunk or else a new one.
    fn take_stack(&mut self) -> io::Result<Stack> {
        self.idle.extend(self.zombie.take());
        if let Some(stack) = self.idle.pop() {
            return Ok(stack);
        }
        if self.chunks.last().is_none_or(|c| c.used == CHUNK_STACKS) {
            #[cfg(test)]
            if self.chunks.len() >= CHUNK_CAP.with(|c| c.get()) {
                return Err(io::Error::from_raw_os_error(12)); // ENOMEM
            }
            let pooled = POOL.try_with(|pool| pool.borrow_mut().pop());
            self.chunks.push(match pooled.ok().flatten() {
                Some(chunk) => chunk,
                None => Chunk::map()?,
            });
        }
        self.chunks.last_mut().expect("pushed if absent").take()
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
    fn a_finished_stack_is_reused_and_all_are_unmapped_when_the_thread_ends() {
        // The pool is the thread's, so the table gets a thread of its own.
        let ids = std::thread::spawn(|| {
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
            let ids = chunk_ids(&table);
            drop(table);
            // Given back, and pooled rather than unmapped.
            assert_eq!((live_stacks(), mapped_chunks()), (0, 1));
            ids
        })
        .join()
        .expect("the thread's checks pass");
        let unmapped = UNMAPPED_CHUNKS.lock().expect("unpoisoned");
        assert!(ids.iter().all(|id| unmapped.contains(id)), "{ids:?}");
    }

    /// The bottom of every live context's stack (the address just above
    /// its guard page), and the number of chunks held.
    fn stack_bottoms(table: &Contexts) -> (Vec<usize>, usize) {
        // SAFETY: the test holds the token: no context is running.
        let inner = unsafe { &*table.0.get() };
        let bottoms = (inner.slots.iter())
            .filter_map(|slot| slot.stack.as_ref())
            .map(|stack| stack.0 as usize + GUARD_BYTES)
            .collect();
        (bottoms, inner.chunks.len())
    }

    /// The ids of the chunks a table holds.
    fn chunk_ids(table: &Contexts) -> Vec<u64> {
        // SAFETY: as in `stack_bottoms`.
        let inner = unsafe { &*table.0.get() };
        inner.chunks.iter().map(|chunk| chunk.id).collect()
    }

    /// Where the mapping holding `addr` starts, its permissions, and the
    /// field lines under it (in `/proc/self/smaps`; none in `maps`).
    fn mapping_lines(maps: &str, addr: usize) -> (usize, &str, Vec<&str>) {
        fn header(line: &str) -> Option<(std::ops::Range<usize>, &str)> {
            let (range, rest) = line.split_once(' ')?;
            let (start, end) = range.split_once('-')?;
            let start = usize::from_str_radix(start, 16).ok()?;
            let end = usize::from_str_radix(end, 16).ok()?;
            Some((start..end, rest.split(' ').next().unwrap_or("")))
        }
        let mut lines = maps.lines();
        while let Some(line) = lines.next() {
            if let Some((range, perms)) = header(line).filter(|(r, _)| r.contains(&addr)) {
                let fields = lines.take_while(|l| header(l).is_none());
                return (range.start, perms, fields.collect());
            }
        }
        panic!("{addr:#x} is not mapped")
    }

    /// The permissions of the mapping holding `addr`, and where that
    /// mapping starts, from `/proc/self/maps`.
    fn mapping_at(maps: &str, addr: usize) -> (usize, &str) {
        let (start, perms, _) = mapping_lines(maps, addr);
        (start, perms)
    }

    /// Checks that every stack is its own read-write mapping, and the page
    /// directly below it is not accessible.
    fn assert_guarded(bottoms: &[usize]) {
        let maps = std::fs::read_to_string("/proc/self/maps").expect("Linux");
        for &bottom in bottoms {
            assert_eq!(mapping_at(&maps, bottom), (bottom, "rw-p"));
            assert_eq!(mapping_at(&maps, bottom + STACK_BYTES - 1).1, "rw-p");
            assert_eq!(mapping_at(&maps, bottom - 1).1, "---p");
        }
    }

    #[test]
    fn stacks_are_carved_from_chunks_each_over_a_guard_page_and_reused() {
        const N: usize = 2 * CHUNK_STACKS + 3;
        let table = Arc::new(Contexts::new());
        let first: Vec<usize> = (0..N).map(|_| spawn(&table, |_| None)).collect();
        let (bottoms, chunks) = stack_bottoms(&table);
        assert_eq!((live_stacks(), bottoms.len(), chunks), (N as isize, N, 3));
        assert_guarded(&bottoms);

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
        assert_eq!((live_stacks(), mapped_chunks()), (0, 3));

        // A second table takes the pooled chunks back in order: the same
        // stacks at the same addresses, each still over its guard page.
        let table = Arc::new(Contexts::new());
        let third: Vec<usize> = (0..N).map(|_| spawn(&table, |_| None)).collect();
        let (reused, chunks) = stack_bottoms(&table);
        assert_eq!((live_stacks(), chunks, mapped_chunks()), (N as isize, 3, 3));
        assert_eq!(reused, bottoms);
        assert_guarded(&reused);
        for c in third {
            let _ = table.switch_to(Some(c));
        }
    }

    #[test]
    fn a_pooled_chunk_keeps_no_page_resident() {
        /// The resident kilobytes of the mapping holding `addr`.
        fn rss_kb(addr: usize) -> u64 {
            let smaps = std::fs::read_to_string("/proc/self/smaps").expect("Linux");
            let (_, _, fields) = mapping_lines(&smaps, addr);
            let rss = fields.iter().find_map(|f| f.strip_prefix("Rss:"));
            let kb = rss.and_then(|r| r.trim().strip_suffix("kB"));
            kb.and_then(|kb| kb.trim().parse().ok()).expect("an Rss line")
        }
        let table = Arc::new(Contexts::new());
        let all: Vec<usize> = (0..3).map(|_| spawn(&table, |_| None)).collect();
        let (bottoms, _) = stack_bottoms(&table);
        for c in all {
            let _ = table.switch_to(Some(c));
        }
        let top_page = |bottom: usize| bottom + STACK_BYTES - 1;
        assert!(bottoms.iter().all(|&b| rss_kb(top_page(b)) > 0), "run on");
        drop(table);
        for &bottom in &bottoms {
            assert_eq!(rss_kb(top_page(bottom)), 0, "{bottom:#x}");
        }
    }

    #[test]
    fn a_refused_chunk_is_an_error_that_leaves_the_table_usable() {
        // Two chunks in the pool: the cap counts the ones a table takes.
        let table = Contexts::new();
        for _ in 0..2 * CHUNK_STACKS {
            assert!(table.spawn(Box::new(|| None)).is_ok());
        }
        drop(table);
        assert_eq!((live_stacks(), mapped_chunks()), (0, 2));
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
            assert_eq!((live_stacks(), mapped_chunks()), (CHUNK_STACKS as isize, 2));
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

    #[test]
    fn a_nested_simulation_pools_its_chunks_for_the_outer_one() {
        // The inner table drops mid-run; the outer one outgrows its chunk
        // on the inner's, while the suspended outer processes keep theirs.
        use crate::{Sim, SimTime};
        let mut outer = Sim::new();
        outer.spawn("keeper", |ctx| {
            let kept: Vec<u64> = black_box((0..100).collect());
            ctx.hold(SimTime::from_secs(3));
            assert_eq!(kept.iter().sum::<u64>(), 4950);
        });
        let total = Arc::new(AtomicU64::new(0));
        let sum = total.clone();
        outer.spawn("nester", move |ctx| {
            ctx.hold(SimTime::from_secs(1));
            let mapped = mapped_chunks();
            let mut inner = Sim::new();
            for i in 0..2 * CHUNK_STACKS as u64 {
                inner.spawn(&format!("inner{i}"), move |c| c.hold(SimTime::from_secs(i)));
            }
            let report = inner.run().expect("the inner run");
            assert_eq!(report.end_time, SimTime::from_secs(2 * CHUNK_STACKS as u64 - 1));
            assert_eq!(mapped_chunks(), mapped + 2, "pooled, not unmapped");
            for i in 0..2 * CHUNK_STACKS as u64 {
                let sum = sum.clone();
                ctx.spawn(&format!("child{i}"), move |c| {
                    let i = black_box(i);
                    c.hold(SimTime::from_secs(1));
                    sum.fetch_add(i, Relaxed);
                });
            }
            assert_eq!(mapped_chunks(), mapped + 2, "the children took the pooled chunks");
        });
        assert_eq!(outer.run().unwrap().end_time, SimTime::from_secs(3));
        let n = 2 * CHUNK_STACKS as u64;
        assert_eq!(total.load(Relaxed), n * (n - 1) / 2);
    }
}
