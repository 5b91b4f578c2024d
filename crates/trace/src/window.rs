//! Trace windows: the "skip N, simulate M" selection every simulation run
//! uses, whether the window was chosen arbitrarily (the articles' "skip 1
//! billion, simulate 2 billion") or by SimPoint.

use crate::inst::TraceInst;

/// The longest trace window (`skip + simulate`, in instructions) any
/// input surface may request: a campaign spec, or the
/// `MICROLIB_SKIP`/`MICROLIB_SIM` knobs (including every window derived
/// from them). A cell captures its whole window into a trace buffer of
/// about 27 bytes per instruction before it simulates, so an unbounded
/// window lets one input ask for terabytes. 5 M instructions (~135 MB of
/// trace) is 20× the paper's 150k+100k window.
pub const MAX_WINDOW_INSTS: u64 = 5_000_000;

/// A contiguous window of the dynamic instruction stream.
///
/// # Examples
///
/// ```
/// use microlib_trace::TraceWindow;
///
/// let w = TraceWindow::new(1_000, 5_000);
/// assert_eq!(w.skip, 1_000);
/// assert_eq!(w.simulate, 5_000);
/// assert_eq!(w.end(), 6_000);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct TraceWindow {
    /// Instructions to fast-forward (functionally warmed, not timed).
    pub skip: u64,
    /// Instructions to simulate in detail.
    pub simulate: u64,
}

impl TraceWindow {
    /// Creates a window.
    pub fn new(skip: u64, simulate: u64) -> Self {
        TraceWindow { skip, simulate }
    }

    /// A window starting at instruction zero.
    pub fn from_start(simulate: u64) -> Self {
        TraceWindow { skip: 0, simulate }
    }

    /// The window covering SimPoint interval `index` of length
    /// `interval_len`.
    pub fn simpoint_interval(index: usize, interval_len: u64) -> Self {
        TraceWindow {
            skip: index as u64 * interval_len,
            simulate: interval_len,
        }
    }

    /// First instruction past the window.
    pub fn end(&self) -> u64 {
        self.skip + self.simulate
    }

    /// `skip + simulate` when it neither overflows nor passes
    /// [`MAX_WINDOW_INSTS`].
    pub fn bounded_end(&self) -> Option<u64> {
        self.skip
            .checked_add(self.simulate)
            .filter(|&end| end <= MAX_WINDOW_INSTS)
    }

    /// Applies the window to an instruction stream.
    pub fn apply<I>(&self, stream: I) -> std::iter::Take<std::iter::Skip<I>>
    where
        I: Iterator<Item = TraceInst>,
    {
        stream.skip(self.skip as usize).take(self.simulate as usize)
    }
}

impl microlib_model::BinCodec for TraceWindow {
    fn encode(&self, e: &mut microlib_model::Encoder) {
        e.put_u64(self.skip);
        e.put_u64(self.simulate);
    }
    fn decode(d: &mut microlib_model::Decoder<'_>) -> Result<Self, microlib_model::CodecError> {
        Ok(TraceWindow {
            skip: d.take_u64()?,
            simulate: d.take_u64()?,
        })
    }
}

impl std::fmt::Display for TraceWindow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "skip {} simulate {}", self.skip, self.simulate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benchmarks;
    use crate::workload::Workload;

    #[test]
    fn window_slices_the_stream() {
        let w = Workload::new(benchmarks::by_name("swim").unwrap(), 1);
        let full: Vec<_> = w.stream().take(300).collect();
        let window = TraceWindow::new(100, 50);
        let sliced: Vec<_> = window.apply(w.stream()).collect();
        assert_eq!(sliced.len(), 50);
        assert_eq!(sliced[..], full[100..150]);
    }

    #[test]
    fn simpoint_interval_window() {
        let w = TraceWindow::simpoint_interval(3, 10_000);
        assert_eq!(w.skip, 30_000);
        assert_eq!(w.simulate, 10_000);
        assert_eq!(w.end(), 40_000);
    }

    #[test]
    fn display_is_informative() {
        assert_eq!(TraceWindow::new(5, 7).to_string(), "skip 5 simulate 7");
    }
}
