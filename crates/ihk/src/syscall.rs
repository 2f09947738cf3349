//! System call numbers shared by both kernel models.

use core::fmt;

/// The system calls the simulation distinguishes. These are exactly the
/// calls the paper's kernel profiler breaks out (Figures 8 and 9) plus the
/// ones the HFI1 device file implements.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Sysno {
    /// `read()`
    Read,
    /// `write()`
    Write,
    /// `open()`
    Open,
    /// `close()`
    Close,
    /// `mmap()`
    Mmap,
    /// `munmap()`
    Munmap,
    /// `ioctl()`
    Ioctl,
    /// `writev()`
    Writev,
    /// `poll()`
    Poll,
    /// `lseek()`
    Lseek,
    /// `nanosleep()`
    Nanosleep,
    /// `futex()`
    Futex,
}

impl Sysno {
    /// The canonical C name (used by the Figure 8/9 legends).
    pub fn name(self) -> &'static str {
        match self {
            Sysno::Read => "read()",
            Sysno::Write => "write()",
            Sysno::Open => "open()",
            Sysno::Close => "close()",
            Sysno::Mmap => "mmap()",
            Sysno::Munmap => "munmap()",
            Sysno::Ioctl => "ioctl()",
            Sysno::Writev => "writev()",
            Sysno::Poll => "poll()",
            Sysno::Lseek => "lseek()",
            Sysno::Nanosleep => "nanosleep()",
            Sysno::Futex => "futex()",
        }
    }

    /// All modelled syscalls (for iteration in reports).
    pub const ALL: [Sysno; 12] = [
        Sysno::Read,
        Sysno::Write,
        Sysno::Open,
        Sysno::Close,
        Sysno::Mmap,
        Sysno::Munmap,
        Sysno::Ioctl,
        Sysno::Writev,
        Sysno::Poll,
        Sysno::Lseek,
        Sysno::Nanosleep,
        Sysno::Futex,
    ];
}

impl fmt::Display for Sysno {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_match_c_convention() {
        assert_eq!(Sysno::Writev.name(), "writev()");
        assert_eq!(format!("{}", Sysno::Ioctl), "ioctl()");
    }

    #[test]
    fn all_is_exhaustive_and_unique() {
        let mut v = Sysno::ALL.to_vec();
        v.sort();
        v.dedup();
        assert_eq!(v.len(), 12);
    }
}
