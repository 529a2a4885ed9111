//! EREW PRAM simulation (paper §VII.A, Lemma VII.1).
//!
//! Each simulated step: every reading processor sends a request message to
//! its memory cell, the cell answers with its value, the processor computes,
//! and writing processors send the new value to their cell. Every step costs
//! `O(1)` depth, `O(√p + √m)` distance and `O(p(√p + √m))` energy.
//!
//! Exclusivity is enforced: two processors touching the same cell in the
//! same phase of the same step panic — that program is not a valid EREW
//! program.

use std::collections::HashMap;

use spatial_model::{zorder, Coord, Machine, Tracked};

use crate::{PramLayout, PramProgram, Word};

/// Runs `prog` on the EREW simulator; returns the final shared memory.
///
/// ```
/// use spatial_model::Machine;
/// use pram::programs::TreeSum;
/// use pram::{simulate_erew, PramLayout, PramProgram};
///
/// let prog = TreeSum::new((1..=16).collect());
/// let layout = PramLayout::adjacent(prog.processors(), prog.memory_cells());
/// let mut m = Machine::new();
/// let memory = simulate_erew(&mut m, &prog, layout);
/// assert_eq!(memory[0], 136); // the tree sum landed in cell 0
/// ```
#[allow(clippy::needless_range_loop)] // pid indexes several parallel arrays
pub fn simulate_erew<P: PramProgram>(
    machine: &mut Machine,
    prog: &P,
    layout: PramLayout,
) -> Vec<Word> {
    let p = prog.processors();
    let m = prog.memory_cells();
    let proc_loc = |pid: usize| -> Coord { zorder::coord_of(layout.proc_lo + pid as u64) };
    let mem_loc = |cell: usize| -> Coord { zorder::coord_of(layout.mem_lo + cell as u64) };

    let init = prog.initial_memory();
    assert_eq!(init.len(), m, "initial memory must fill every cell");
    let mut memory: Vec<Tracked<Word>> =
        init.into_iter().enumerate().map(|(c, v)| machine.place(mem_loc(c), v)).collect();
    let mut states: Vec<Tracked<P::State>> =
        (0..p).map(|pid| machine.place(proc_loc(pid), prog.init_state(pid))).collect();

    for t in 0..prog.steps() {
        // Read phase, in three batched waves: every reading processor's
        // request travels to its cell, the cells answer locally, and every
        // response travels back. Exclusivity makes the per-processor chains
        // independent, so the waves charge exactly what the per-processor
        // loop charges.
        let mut read_cells: HashMap<usize, usize> = HashMap::new();
        let mut readers: Vec<(usize, usize)> = Vec::new(); // (pid, cell)
        for pid in 0..p {
            if let Some(cell) = prog.read_addr(t, pid, states[pid].value()) {
                assert!(cell < m, "read address {cell} out of bounds");
                if let Some(other) = read_cells.insert(cell, pid) {
                    panic!("EREW violation: processors {other} and {pid} both read cell {cell} at step {t}");
                }
                readers.push((pid, cell));
            }
        }
        // Requests: processor -> cell (depend on the state).
        let requests = send_all(
            machine,
            readers
                .iter()
                .map(|&(pid, cell)| (states[pid].with_value(cell), mem_loc(cell)))
                .collect(),
        );
        // Responses: cell -> processor (depend on request + cell).
        let mut outgoing: Vec<(Tracked<Word>, Coord)> = Vec::with_capacity(readers.len());
        for (&(pid, cell), request) in readers.iter().zip(requests) {
            let response = memory[cell].zip_with(&request, |v, _| *v);
            machine.discard(request);
            outgoing.push((response, proc_loc(pid)));
        }
        let responses = send_all(machine, outgoing);
        let mut reads: Vec<Option<Tracked<Word>>> = (0..p).map(|_| None).collect();
        for (&(pid, _), response) in readers.iter().zip(responses) {
            reads[pid] = Some(response);
        }
        // Compute + write phase: states advance locally, then all writes
        // travel in one wave.
        let mut write_cells: HashMap<usize, usize> = HashMap::new();
        let mut writers: Vec<(usize, usize)> = Vec::new(); // (pid, cell)
        let mut write_vals: Vec<Word> = Vec::new();
        for pid in 0..p {
            let read_val = reads[pid].as_ref().map(|r| *r.value());
            let mut state = states[pid].value().clone();
            let write = prog.execute(t, pid, &mut state, read_val);
            // New state depends on the old state and the value read.
            let new_state = match reads[pid].take() {
                None => states[pid].with_value(state),
                Some(r) => {
                    let s = states[pid].zip_with(&r, |_, _| state);
                    machine.discard(r);
                    s
                }
            };
            machine.discard(std::mem::replace(&mut states[pid], new_state));
            if let Some((cell, value)) = write {
                assert!(cell < m, "write address {cell} out of bounds");
                if let Some(other) = write_cells.insert(cell, pid) {
                    panic!("EREW violation: processors {other} and {pid} both write cell {cell} at step {t}");
                }
                writers.push((pid, cell));
                write_vals.push(value);
            }
        }
        let arrived = send_all(
            machine,
            writers
                .iter()
                .zip(write_vals)
                .map(|(&(pid, cell), value)| (states[pid].with_value(value), mem_loc(cell)))
                .collect(),
        );
        for (&(_, cell), new_val) in writers.iter().zip(arrived) {
            machine.discard(std::mem::replace(&mut memory[cell], new_val));
        }
    }

    for s in states {
        machine.discard(s);
    }
    memory.into_iter().map(Tracked::into_value).collect()
}

/// Moves every item to its destination. Batched when no item is already at
/// its destination; otherwise falls back to per-item [`Machine::send_owned`],
/// which (unlike the batch API) charges a zero-distance message for a
/// self-send — so the cost never depends on which path ran.
fn send_all<T>(machine: &mut Machine, sends: Vec<(Tracked<T>, Coord)>) -> Vec<Tracked<T>> {
    if sends.iter().any(|(t, dst)| t.loc() == *dst) {
        sends.into_iter().map(|(t, dst)| machine.send_owned(t, dst)).collect()
    } else {
        machine.send_batch(sends)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::programs::{CopyTree, TreeSum};

    #[test]
    fn tree_sum_computes_total() {
        let vals: Vec<Word> = (1..=64).collect();
        let prog = TreeSum::new(vals.clone());
        let mut m = Machine::new();
        let mem = simulate_erew(
            &mut m,
            &prog,
            PramLayout::adjacent(prog.processors(), prog.memory_cells()),
        );
        assert_eq!(mem[0], vals.iter().sum::<Word>());
    }

    #[test]
    fn tree_sum_depth_is_linear_in_steps() {
        // Lemma VII.1: O(T_p) depth — each step adds O(1) to the chain.
        let prog = TreeSum::new((0..256).collect());
        let mut m = Machine::new();
        let _ = simulate_erew(
            &mut m,
            &prog,
            PramLayout::adjacent(prog.processors(), prog.memory_cells()),
        );
        let t = prog.steps() as u64;
        assert!(m.report().depth <= 4 * t + 4, "depth {} for {t} steps", m.report().depth);
    }

    #[test]
    fn energy_matches_p_sqrt_p_per_step() {
        // p = m: energy O(p·√p·T_p).
        let energy = |n: Word| {
            let prog = TreeSum::new((0..n).collect());
            let mut m = Machine::new();
            let _ = simulate_erew(
                &mut m,
                &prog,
                PramLayout::adjacent(prog.processors(), prog.memory_cells()),
            );
            (m.energy() as f64, prog.steps() as f64, prog.processors() as f64)
        };
        let (e, t, p) = energy(1024);
        let bound = 8.0 * p.sqrt() * p * t;
        assert!(e <= bound, "energy {e} > {bound}");
    }

    #[test]
    fn prefix_sums_program_computes_inclusive_prefix() {
        use crate::programs::PrefixSums;
        for n in [2usize, 4, 8, 64, 256] {
            let vals: Vec<Word> = (0..n as Word).map(|i| (i * 13) % 7 - 3).collect();
            let prog = PrefixSums::new(vals.clone());
            let layout = PramLayout::adjacent(prog.processors(), prog.memory_cells());
            let mut m = Machine::new();
            let mem = simulate_erew(&mut m, &prog, layout);
            let mut expect = vals;
            for i in 1..n {
                expect[i] += expect[i - 1];
            }
            assert_eq!(mem, expect, "n = {n}");
        }
    }

    #[test]
    fn prefix_sums_simulation_is_costlier_than_native_scan() {
        // §VII's message: PRAM simulation gives quick upper bounds, but the
        // native spatial scan wins (Θ(n) vs Ω(n^{3/2}) energy).
        use crate::programs::PrefixSums;
        let n = 1024usize;
        let vals: Vec<Word> = vec![1; n];
        let prog = PrefixSums::new(vals.clone());
        let layout = PramLayout::adjacent(prog.processors(), prog.memory_cells());
        let mut m_pram = Machine::new();
        let _ = simulate_erew(&mut m_pram, &prog, layout);

        let mut m_native = Machine::new();
        let items = collectives::zarray::place_z(&mut m_native, 0, vals);
        let _ = collectives::scan(&mut m_native, 0, items, &|a, b| a + b);
        assert!(
            m_pram.energy() > 10 * m_native.energy(),
            "simulated {} vs native {}",
            m_pram.energy(),
            m_native.energy()
        );
    }

    #[test]
    fn copy_tree_broadcasts_without_concurrent_reads() {
        let prog = CopyTree::new(42, 32);
        let mut m = Machine::new();
        let mem = simulate_erew(
            &mut m,
            &prog,
            PramLayout::adjacent(prog.processors(), prog.memory_cells()),
        );
        assert!(mem.iter().all(|&v| v == 42), "{mem:?}");
    }

    struct BadRead;
    impl PramProgram for BadRead {
        type State = ();
        fn processors(&self) -> usize {
            2
        }
        fn memory_cells(&self) -> usize {
            2
        }
        fn steps(&self) -> usize {
            1
        }
        fn initial_memory(&self) -> Vec<Word> {
            vec![0, 0]
        }
        fn init_state(&self, _: usize) {}
        fn read_addr(&self, _: usize, _: usize, _: &()) -> Option<usize> {
            Some(0) // both processors read cell 0
        }
        fn execute(
            &self,
            _: usize,
            _: usize,
            _: &mut (),
            _: Option<Word>,
        ) -> Option<(usize, Word)> {
            None
        }
    }

    #[test]
    #[should_panic(expected = "EREW violation")]
    fn concurrent_read_panics() {
        let mut m = Machine::new();
        let _ = simulate_erew(&mut m, &BadRead, PramLayout::adjacent(2, 2));
    }
}
