//! Core address and access-record types shared across the workspace.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Cacheline size in bytes (Table 1 of the paper: 64 B lines everywhere).
pub const LINE_BYTES: u64 = 64;

/// Page size in bytes. Watchpoints in the paper are implemented with the OS
/// page-protection mechanism, so they have 4 KiB granularity — the source of
/// the false-positive traps the paper discusses for povray.
pub const PAGE_BYTES: u64 = 4096;

/// A byte address in the simulated address space.
#[derive(Copy, Clone, Default, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Addr(pub u64);

/// A cacheline address: byte address divided by [`LINE_BYTES`].
#[derive(Copy, Clone, Default, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct LineAddr(pub u64);

/// A page address: byte address divided by [`PAGE_BYTES`].
#[derive(Copy, Clone, Default, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct PageAddr(pub u64);

/// A program counter identifying the static load/store instruction.
///
/// The statistical models in CoolSim (randomized statistical warming) are
/// keyed per PC, which is why this is a first-class type rather than a bare
/// integer.
#[derive(Copy, Clone, Default, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Pc(pub u64);

impl Addr {
    /// The cacheline containing this address.
    #[inline]
    pub fn line(self) -> LineAddr {
        LineAddr(self.0 / LINE_BYTES)
    }

    /// The page containing this address.
    #[inline]
    pub fn page(self) -> PageAddr {
        PageAddr(self.0 / PAGE_BYTES)
    }
}

impl LineAddr {
    /// First byte address of this line.
    #[inline]
    pub fn addr(self) -> Addr {
        Addr(self.0 * LINE_BYTES)
    }

    /// The page containing this line.
    #[inline]
    pub fn page(self) -> PageAddr {
        PageAddr(self.0 * LINE_BYTES / PAGE_BYTES)
    }
}

impl PageAddr {
    /// First byte address of this page.
    #[inline]
    pub fn addr(self) -> Addr {
        Addr(self.0 * PAGE_BYTES)
    }

    /// Number of cachelines per page.
    #[inline]
    pub fn lines_per_page() -> u64 {
        PAGE_BYTES / LINE_BYTES
    }
}

impl From<u64> for Addr {
    fn from(v: u64) -> Self {
        Addr(v)
    }
}

impl From<Addr> for u64 {
    fn from(a: Addr) -> Self {
        a.0
    }
}

macro_rules! hex_debug {
    ($t:ty, $tag:literal) => {
        impl fmt::Debug for $t {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($tag, "({:#x})"), self.0)
            }
        }
        impl fmt::Display for $t {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{:#x}", self.0)
            }
        }
        impl fmt::LowerHex for $t {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                fmt::LowerHex::fmt(&self.0, f)
            }
        }
        impl fmt::UpperHex for $t {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                fmt::UpperHex::fmt(&self.0, f)
            }
        }
    };
}

hex_debug!(Addr, "Addr");
hex_debug!(LineAddr, "LineAddr");
hex_debug!(PageAddr, "PageAddr");
hex_debug!(Pc, "Pc");

/// One dynamic memory access of a [`Workload`](crate::Workload) execution.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct MemAccess {
    /// Position of this access in the workload's access stream.
    pub index: u64,
    /// Instruction count at which the access retires.
    pub icount: u64,
    /// The static instruction issuing the access.
    pub pc: Pc,
    /// Byte address accessed.
    pub addr: Addr,
}

impl MemAccess {
    /// Cacheline touched by this access.
    #[inline]
    pub fn line(&self) -> LineAddr {
        self.addr.line()
    }

    /// Page touched by this access.
    #[inline]
    pub fn page(&self) -> PageAddr {
        self.addr.page()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_and_page_math() {
        let a = Addr(4096 + 65);
        assert_eq!(a.line(), LineAddr((4096 + 65) / 64));
        assert_eq!(a.page(), PageAddr(1));
        assert_eq!(a.line().page(), PageAddr(1));
        assert_eq!(LineAddr(10).addr(), Addr(640));
        assert_eq!(PageAddr(2).addr(), Addr(8192));
        assert_eq!(PageAddr::lines_per_page(), 64);
    }

    #[test]
    fn debug_formats_are_nonempty_hex() {
        assert_eq!(format!("{:?}", Addr(255)), "Addr(0xff)");
        assert_eq!(format!("{}", LineAddr(16)), "0x10");
        assert_eq!(format!("{:x}", Pc(255)), "ff");
        assert_eq!(format!("{:X}", PageAddr(255)), "FF");
    }

    #[test]
    fn mem_access_helpers() {
        let m = MemAccess {
            index: 3,
            icount: 9,
            pc: Pc(0x400000),
            addr: Addr(4160),
        };
        assert_eq!(m.line(), LineAddr(65));
        assert_eq!(m.page(), PageAddr(1));
    }

    #[test]
    fn addr_conversions() {
        let a: Addr = 128u64.into();
        let v: u64 = a.into();
        assert_eq!(v, 128);
    }
}
