//! MAC addresses and the per-receiver address filter.
//!
//! Addresses are 16-bit and nonzero (`0x0000` is the bundle padding
//! sentinel, so no frame may start with it): `0xFFFF` is broadcast,
//! `0xFF00..=0xFFFE` are group addresses any number of receivers may
//! join, everything else is unicast. Each address also hashes to a 6-bit
//! *hint* that rides in the high bits of every object id carrying frames
//! for it — the symbol-level pre-filter
//! ([`inframe_link::session::ReceiverSession::set_admission_hints`])
//! screens on hints, the MAC filter re-checks the exact address, so hint
//! collisions cost a little decode work and never correctness.

/// A 16-bit MAC address (nonzero).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MacAddr(pub u16);

/// Most group slots a filter can join.
pub const MAX_GROUPS: usize = 4;

/// The broadcast hint value (reserved: no unicast/group address hashes
/// to it).
pub const BROADCAST_HINT: u8 = 63;

impl MacAddr {
    /// The all-stations broadcast address.
    pub const BROADCAST: MacAddr = MacAddr(0xFFFF);

    /// A checked constructor.
    ///
    /// # Panics
    /// Panics on the reserved zero address.
    pub fn new(raw: u16) -> Self {
        assert!(raw != 0, "address 0x0000 is the padding sentinel");
        MacAddr(raw)
    }

    /// Whether this is the broadcast address.
    pub fn is_broadcast(self) -> bool {
        self == Self::BROADCAST
    }

    /// Whether this is a group address (`0xFF00..=0xFFFE`).
    pub fn is_group(self) -> bool {
        (0xFF00..=0xFFFE).contains(&self.0)
    }

    /// The 6-bit destination hint carried in object ids addressed to
    /// this address: broadcast maps to the reserved [`BROADCAST_HINT`],
    /// every other address hashes (SplitMix-style) into `0..=62`.
    pub fn hint(self) -> u8 {
        if self.is_broadcast() {
            return BROADCAST_HINT;
        }
        let mut z = (self.0 as u64).wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) % 63) as u8
    }
}

/// Which destinations a receiver accepts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AddressFilter {
    own: MacAddr,
    groups: [u16; MAX_GROUPS],
    n_groups: u8,
    promiscuous: bool,
}

impl AddressFilter {
    /// A filter accepting `own`, broadcast, and nothing else yet.
    ///
    /// # Panics
    /// Panics on a broadcast or group `own` address.
    pub fn new(own: MacAddr) -> Self {
        assert!(
            !own.is_broadcast() && !own.is_group(),
            "own address must be unicast"
        );
        Self {
            own,
            groups: [0; MAX_GROUPS],
            n_groups: 0,
            promiscuous: false,
        }
    }

    /// A filter that accepts every frame (monitoring taps).
    pub fn promiscuous(own: MacAddr) -> Self {
        Self {
            promiscuous: true,
            ..Self::new(own)
        }
    }

    /// Joins a group address.
    ///
    /// # Panics
    /// Panics on a non-group address or when all [`MAX_GROUPS`] slots
    /// are taken.
    pub fn join_group(&mut self, group: MacAddr) {
        assert!(group.is_group(), "not a group address");
        if self.groups[..self.n_groups as usize].contains(&group.0) {
            return;
        }
        assert!(
            (self.n_groups as usize) < MAX_GROUPS,
            "all group slots taken"
        );
        self.groups[self.n_groups as usize] = group.0;
        self.n_groups += 1;
    }

    /// The receiver's own unicast address.
    pub fn own_addr(&self) -> MacAddr {
        self.own
    }

    /// The joined group addresses (raw).
    pub fn groups(&self) -> &[u16] {
        &self.groups[..self.n_groups as usize]
    }

    /// Whether this filter accepts every destination.
    pub fn is_promiscuous(&self) -> bool {
        self.promiscuous
    }

    /// Whether a frame addressed to `dst` should be accepted. Branch-free
    /// of allocation and loops over at most [`MAX_GROUPS`] slots — this
    /// runs per frame on the receive hot path.
    pub fn accepts(&self, dst: MacAddr) -> bool {
        self.promiscuous
            || dst.is_broadcast()
            || dst == self.own
            || self.groups[..self.n_groups as usize].contains(&dst.0)
    }

    /// The symbol-level admission mask implied by this filter: one bit
    /// per object-id hint, covering broadcast, the own address, and every
    /// joined group. Promiscuous filters admit everything.
    pub fn admission_mask(&self) -> u64 {
        if self.promiscuous {
            return u64::MAX;
        }
        let mut mask = (1u64 << BROADCAST_HINT) | (1u64 << self.own.hint());
        for &g in &self.groups[..self.n_groups as usize] {
            mask |= 1u64 << MacAddr(g).hint();
        }
        mask
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hints_stay_in_range_and_broadcast_is_reserved() {
        assert_eq!(MacAddr::BROADCAST.hint(), BROADCAST_HINT);
        for raw in 1..=0xFFFEu16 {
            let h = MacAddr(raw).hint();
            assert!(h < BROADCAST_HINT, "addr {raw:#06x} hint {h}");
        }
    }

    #[test]
    fn filter_accepts_own_broadcast_and_groups_only() {
        let mut f = AddressFilter::new(MacAddr::new(0x0042));
        f.join_group(MacAddr::new(0xFF07));
        assert!(f.accepts(MacAddr::new(0x0042)));
        assert!(f.accepts(MacAddr::BROADCAST));
        assert!(f.accepts(MacAddr::new(0xFF07)));
        assert!(!f.accepts(MacAddr::new(0x0043)));
        assert!(!f.accepts(MacAddr::new(0xFF08)));
        assert!(AddressFilter::promiscuous(MacAddr::new(1)).accepts(MacAddr::new(0x1234)));
    }

    #[test]
    fn admission_mask_covers_exactly_the_accepted_hints() {
        let mut f = AddressFilter::new(MacAddr::new(0x0042));
        f.join_group(MacAddr::new(0xFF07));
        let mask = f.admission_mask();
        assert_ne!(mask & (1 << BROADCAST_HINT), 0);
        assert_ne!(mask & (1 << MacAddr::new(0x0042).hint()), 0);
        assert_ne!(mask & (1 << MacAddr::new(0xFF07).hint()), 0);
        // A hint none of the accepted addresses map to is not admitted.
        let foreign = (0..63u8)
            .find(|&h| h != MacAddr::new(0x0042).hint() && h != MacAddr::new(0xFF07).hint())
            .unwrap();
        assert_eq!(mask & (1 << foreign), 0);
        assert_eq!(
            AddressFilter::promiscuous(MacAddr::new(1)).admission_mask(),
            u64::MAX
        );
    }

    #[test]
    fn duplicate_group_join_is_idempotent() {
        let mut f = AddressFilter::new(MacAddr::new(7));
        for _ in 0..10 {
            f.join_group(MacAddr::new(0xFF01));
        }
        f.join_group(MacAddr::new(0xFF02));
        assert!(f.accepts(MacAddr::new(0xFF01)));
        assert!(f.accepts(MacAddr::new(0xFF02)));
    }

    #[test]
    #[should_panic(expected = "padding sentinel")]
    fn zero_address_rejected() {
        MacAddr::new(0);
    }
}
