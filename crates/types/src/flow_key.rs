use crate::ConfigError;
use std::fmt;

/// Number of bits in a serialized [`FlowKey`] (the paper's 104-bit flow ID).
pub const FLOW_KEY_BITS: usize = 104;

/// Number of bytes in a serialized [`FlowKey`].
pub const FLOW_KEY_BYTES: usize = FLOW_KEY_BITS / 8;

/// A minimal IPv4 address newtype.
///
/// The reproduction is self-contained (no `std::net` parsing requirements in
/// hot paths), so we use a transparent wrapper over the 32-bit big-endian
/// address value.
///
/// # Examples
///
/// ```
/// use hashflow_types::Ipv4Addr;
/// let a = Ipv4Addr::from([192, 168, 0, 1]);
/// assert_eq!(a.octets(), [192, 168, 0, 1]);
/// assert_eq!(a.to_string(), "192.168.0.1");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Ipv4Addr(u32);

impl Ipv4Addr {
    /// Creates an address from its 32-bit numeric value.
    pub const fn new(bits: u32) -> Self {
        Ipv4Addr(bits)
    }

    /// Returns the four dotted-quad octets, most significant first.
    pub const fn octets(self) -> [u8; 4] {
        self.0.to_be_bytes()
    }

    /// Returns the numeric 32-bit value of the address.
    pub const fn to_bits(self) -> u32 {
        self.0
    }
}

impl From<[u8; 4]> for Ipv4Addr {
    fn from(octets: [u8; 4]) -> Self {
        Ipv4Addr(u32::from_be_bytes(octets))
    }
}

impl From<u32> for Ipv4Addr {
    fn from(bits: u32) -> Self {
        Ipv4Addr(bits)
    }
}

impl fmt::Display for Ipv4Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let [a, b, c, d] = self.octets();
        write!(f, "{a}.{b}.{c}.{d}")
    }
}

impl std::str::FromStr for Ipv4Addr {
    type Err = ConfigError;

    /// Parses a dotted-quad address (`192.168.0.1`).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut octets = [0u8; 4];
        let mut parts = s.split('.');
        for slot in &mut octets {
            let part = parts
                .next()
                .ok_or_else(|| ConfigError::new(format!("'{s}' is not a dotted-quad address")))?;
            *slot = part
                .parse()
                .map_err(|_| ConfigError::new(format!("bad address octet '{part}' in '{s}'")))?;
        }
        if parts.next().is_some() {
            return Err(ConfigError::new(format!(
                "'{s}' has more than four address octets"
            )));
        }
        Ok(Ipv4Addr::from(octets))
    }
}

impl fmt::Debug for Ipv4Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

/// A 104-bit five-tuple flow identifier (§IV-A).
///
/// Flows are keyed by `(src_ip, dst_ip, src_port, dst_port, protocol)`. The
/// key *is* its serialized form ([`FlowKey::to_bytes`]): exactly
/// [`FLOW_KEY_BYTES`] bytes, each field big-endian in that order, at
/// alignment 1 — the paper's 104 bits with no padding, so a
/// [`FlowRecord`](crate::FlowRecord) is 17 bytes and a
/// [`Packet`](crate::Packet) carries the key whole. It is the unit all the
/// algorithms in this workspace hash over, two keys are equal if and only
/// if their serialized forms are, and because the fields are big-endian the
/// byte-wise order is the field-by-field order of the five-tuple, which
/// sorted reports and top-k tie-breaks rely on.
///
/// # Examples
///
/// ```
/// use hashflow_types::FlowKey;
/// let k = FlowKey::new([1, 2, 3, 4].into(), [5, 6, 7, 8].into(), 1234, 80, 6);
/// assert_eq!(FlowKey::from_bytes(k.to_bytes()), k);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub struct FlowKey([u8; FLOW_KEY_BYTES]);

const _: () = assert!(
    std::mem::size_of::<FlowKey>() == FLOW_KEY_BYTES && std::mem::align_of::<FlowKey>() == 1
);

impl FlowKey {
    /// Creates a flow key from its five-tuple components.
    pub const fn new(
        src_ip: Ipv4Addr,
        dst_ip: Ipv4Addr,
        src_port: u16,
        dst_port: u16,
        protocol: u8,
    ) -> Self {
        let s = src_ip.to_bits().to_be_bytes();
        let d = dst_ip.to_bits().to_be_bytes();
        let sp = src_port.to_be_bytes();
        let dp = dst_port.to_be_bytes();
        FlowKey([
            s[0], s[1], s[2], s[3], d[0], d[1], d[2], d[3], sp[0], sp[1], dp[0], dp[1], protocol,
        ])
    }

    /// Builds a synthetic-but-distinct flow key from a dense flow index.
    ///
    /// Trace generators need millions of distinct keys; this bijectively
    /// spreads a `u64` index over the five-tuple space so no two indices
    /// collide and the bit patterns are not degenerate (ports and address
    /// bytes all vary).
    ///
    /// # Examples
    ///
    /// ```
    /// use hashflow_types::FlowKey;
    /// assert_ne!(FlowKey::from_index(1), FlowKey::from_index(2));
    /// ```
    pub fn from_index(index: u64) -> Self {
        // SplitMix64 finalizer: a bijection on u64, so distinct indices give
        // distinct (src_ip, dst_ip low half) pairs even before ports differ.
        let mut z = index.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        FlowKey::new(
            Ipv4Addr::new((z >> 32) as u32),
            Ipv4Addr::new(z as u32),
            (index & 0xffff) as u16,
            ((index >> 16) & 0xffff) as u16,
            if index & 1 == 0 { 6 } else { 17 },
        )
    }

    /// Source IPv4 address.
    pub const fn src_ip(&self) -> Ipv4Addr {
        let b = &self.0;
        Ipv4Addr::new(u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Destination IPv4 address.
    pub const fn dst_ip(&self) -> Ipv4Addr {
        let b = &self.0;
        Ipv4Addr::new(u32::from_be_bytes([b[4], b[5], b[6], b[7]]))
    }

    /// Source transport port.
    pub const fn src_port(&self) -> u16 {
        u16::from_be_bytes([self.0[8], self.0[9]])
    }

    /// Destination transport port.
    pub const fn dst_port(&self) -> u16 {
        u16::from_be_bytes([self.0[10], self.0[11]])
    }

    /// IP protocol number (6 = TCP, 17 = UDP, ...).
    pub const fn protocol(&self) -> u8 {
        self.0[12]
    }

    /// Serializes the key to its canonical 13-byte wire form.
    #[inline]
    pub const fn to_bytes(&self) -> [u8; FLOW_KEY_BYTES] {
        self.0
    }

    /// Deserializes a key from its canonical 13-byte wire form.
    #[inline]
    pub const fn from_bytes(bytes: [u8; FLOW_KEY_BYTES]) -> Self {
        FlowKey(bytes)
    }

    /// The canonical 13 bytes viewed as two little-endian machine words:
    /// `lo` is bytes 0–7 and `hi` is bytes 8–12 (zero-extended).
    ///
    /// Hot paths that mix the whole key with word-wide arithmetic (the
    /// hash lanes, the shard dispatch hash, the sealed-epoch index) use
    /// this instead of [`Self::to_bytes`]: two loads of the stored bytes.
    ///
    /// # Examples
    ///
    /// ```
    /// use hashflow_types::FlowKey;
    /// let k = FlowKey::from_index(9);
    /// let bytes = k.to_bytes();
    /// let (lo, hi) = k.to_words();
    /// assert_eq!(lo, u64::from_le_bytes(bytes[0..8].try_into().unwrap()));
    /// assert_eq!(hi & 0xff, u64::from(bytes[8]));
    /// ```
    #[inline]
    pub const fn to_words(&self) -> (u64, u64) {
        let b = &self.0;
        let lo = u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]);
        let hi = u32::from_le_bytes([b[8], b[9], b[10], b[11]]) as u64 | (b[12] as u64) << 32;
        (lo, hi)
    }

    /// A seeded 64-bit mix of the whole key: a SplitMix64-style avalanche
    /// over [`Self::to_words`] — three multiplies, a fraction of a full
    /// byte-stream hash pass, with every output bit depending on every
    /// key bit.
    ///
    /// The one word-wide key hash of the workspace: the shard dispatcher
    /// keys it with a fixed seed (placement must be reproducible), the
    /// sealed-epoch index with a per-process random one (so flow keys
    /// chosen against a known seed do not line up its probe chains).
    ///
    /// # Examples
    ///
    /// ```
    /// use hashflow_types::FlowKey;
    /// let k = FlowKey::from_index(9);
    /// assert_eq!(k.mix64(7), k.mix64(7));
    /// assert_ne!(k.mix64(7), k.mix64(8));
    /// assert_ne!(k.mix64(7), FlowKey::from_index(10).mix64(7));
    /// ```
    #[inline]
    pub const fn mix64(&self, seed: u64) -> u64 {
        let (lo, hi) = self.to_words();
        let mut x = lo ^ seed;
        x = x.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        x ^= hi.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x ^= x >> 31;
        x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 29)
    }

    /// XORs another key into this one, byte-wise.
    ///
    /// FlowRadar's counting table stores the XOR of all flow IDs hashed into
    /// a cell and peels single flows back out by XOR-ing decoded IDs away;
    /// this helper keeps that logic on the most specific type involved.
    ///
    /// # Examples
    ///
    /// ```
    /// use hashflow_types::FlowKey;
    /// let a = FlowKey::from_index(7);
    /// let b = FlowKey::from_index(9);
    /// assert_eq!(a.xor(&b).xor(&b), a);
    /// ```
    pub fn xor(&self, other: &FlowKey) -> FlowKey {
        let mut bytes = self.0;
        for (b, r) in bytes.iter_mut().zip(other.0) {
            *b ^= r;
        }
        FlowKey(bytes)
    }

    /// Returns `true` if every byte of the serialized key is zero.
    ///
    /// The all-zero key is what an XOR accumulator returns to after every
    /// encoded flow has been peeled away.
    pub fn is_zero(&self) -> bool {
        self.0 == [0u8; FLOW_KEY_BYTES]
    }
}

/// Hashes the 13 canonical bytes, with no length prefix: the width is
/// fixed.
impl std::hash::Hash for FlowKey {
    #[inline]
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        state.write(&self.0);
    }
}

impl From<(Ipv4Addr, Ipv4Addr, u16, u16, u8)> for FlowKey {
    fn from(t: (Ipv4Addr, Ipv4Addr, u16, u16, u8)) -> Self {
        FlowKey::new(t.0, t.1, t.2, t.3, t.4)
    }
}

/// The canonical text form is `src:port->dst:port/proto`
/// (`10.0.0.1:80->10.0.0.2:443/6`) and round-trips through
/// [`FromStr`](std::str::FromStr): query predicates and CLI filter
/// arguments parse exactly what reports print.
impl fmt::Display for FlowKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}->{}:{}/{}",
            self.src_ip(),
            self.src_port(),
            self.dst_ip(),
            self.dst_port(),
            self.protocol()
        )
    }
}

impl std::str::FromStr for FlowKey {
    type Err = ConfigError;

    /// Parses the canonical [`Display`](fmt::Display) form
    /// `src:port->dst:port/proto`.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] naming the malformed component.
    ///
    /// # Examples
    ///
    /// ```
    /// use hashflow_types::FlowKey;
    /// let key: FlowKey = "10.0.0.1:80->10.0.0.2:443/6".parse()?;
    /// assert_eq!(key.to_string(), "10.0.0.1:80->10.0.0.2:443/6");
    /// # Ok::<(), hashflow_types::ConfigError>(())
    /// ```
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        fn endpoint(part: &str, which: &str) -> Result<(Ipv4Addr, u16), ConfigError> {
            let (ip, port) = part.split_once(':').ok_or_else(|| {
                ConfigError::new(format!("{which} endpoint '{part}' is missing ':port'"))
            })?;
            Ok((
                ip.parse()?,
                port.parse().map_err(|_| {
                    ConfigError::new(format!("bad {which} port '{port}' in '{part}'"))
                })?,
            ))
        }
        let (tuple, proto) = s.rsplit_once('/').ok_or_else(|| {
            ConfigError::new(format!("flow key '{s}' is missing the '/proto' suffix"))
        })?;
        let (src, dst) = tuple.split_once("->").ok_or_else(|| {
            ConfigError::new(format!("flow key '{s}' is missing the '->' separator"))
        })?;
        let (src_ip, src_port) = endpoint(src, "source")?;
        let (dst_ip, dst_port) = endpoint(dst, "destination")?;
        let protocol = proto
            .parse()
            .map_err(|_| ConfigError::new(format!("bad protocol number '{proto}' in '{s}'")))?;
        Ok(FlowKey::new(src_ip, dst_ip, src_port, dst_port, protocol))
    }
}

impl fmt::Debug for FlowKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "FlowKey({self})")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ipv4_octet_round_trip() {
        let a = Ipv4Addr::from([203, 0, 113, 9]);
        assert_eq!(a.octets(), [203, 0, 113, 9]);
        assert_eq!(Ipv4Addr::new(a.to_bits()), a);
    }

    #[test]
    fn ipv4_display() {
        assert_eq!(Ipv4Addr::from([10, 20, 30, 40]).to_string(), "10.20.30.40");
    }

    #[test]
    fn key_byte_round_trip() {
        let k = FlowKey::new([1, 2, 3, 4].into(), [9, 8, 7, 6].into(), 53, 40001, 17);
        assert_eq!(FlowKey::from_bytes(k.to_bytes()), k);
    }

    #[test]
    fn key_width_matches_paper() {
        assert_eq!(FLOW_KEY_BITS, 104);
        assert_eq!(FLOW_KEY_BYTES, 13);
        assert_eq!(FlowKey::default().to_bytes().len(), FLOW_KEY_BYTES);
    }

    #[test]
    fn from_index_distinct_for_small_range() {
        let mut seen = std::collections::HashSet::new();
        for i in 0..10_000u64 {
            assert!(seen.insert(FlowKey::from_index(i)), "collision at {i}");
        }
    }

    #[test]
    fn words_match_canonical_bytes() {
        for i in [0u64, 1, 7, 0xffff, u64::MAX / 3, u64::MAX] {
            let k = FlowKey::from_index(i);
            let b = k.to_bytes();
            let (lo, hi) = k.to_words();
            assert_eq!(lo, u64::from_le_bytes(b[0..8].try_into().unwrap()));
            let expect_hi = u64::from(u32::from_le_bytes(b[8..12].try_into().unwrap()))
                | (u64::from(b[12]) << 32);
            assert_eq!(hi, expect_hi);
        }
    }

    #[test]
    fn xor_is_self_inverse_and_zero_identity() {
        let a = FlowKey::from_index(12345);
        let b = FlowKey::from_index(67890);
        assert_eq!(a.xor(&b).xor(&b), a);
        assert!(a.xor(&a).is_zero());
        assert_eq!(a.xor(&FlowKey::default()), a);
    }

    #[test]
    fn display_is_the_canonical_compact_form() {
        let k = FlowKey::new([10, 0, 0, 1].into(), [10, 0, 0, 2].into(), 80, 443, 6);
        assert_eq!(k.to_string(), "10.0.0.1:80->10.0.0.2:443/6");
    }

    #[test]
    fn display_from_str_round_trip() {
        for i in [0u64, 1, 7, 53, 0xffff, u64::MAX / 5] {
            let k = FlowKey::from_index(i);
            let parsed: FlowKey = k.to_string().parse().unwrap();
            assert_eq!(parsed, k, "round trip failed for {k}");
        }
    }

    #[test]
    fn from_str_rejects_malformed_keys() {
        for bad in [
            "",
            "10.0.0.1:80->10.0.0.2:443",      // no proto
            "10.0.0.1:80 10.0.0.2:443/6",     // no arrow
            "10.0.0.1->10.0.0.2:443/6",       // source port missing
            "10.0.0.1:80->10.0.0.2:443/tcp",  // non-numeric proto
            "10.0.0:80->10.0.0.2:443/6",      // short address
            "10.0.0.256:80->10.0.0.2:443/6",  // octet out of range
            "10.0.0.1:99999->10.0.0.2:443/6", // port out of range
        ] {
            assert!(bad.parse::<FlowKey>().is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn ipv4_from_str_round_trip() {
        let a: Ipv4Addr = "203.0.113.9".parse().unwrap();
        assert_eq!(a.octets(), [203, 0, 113, 9]);
        assert!("1.2.3".parse::<Ipv4Addr>().is_err());
        assert!("1.2.3.4.5".parse::<Ipv4Addr>().is_err());
    }

    #[test]
    fn accessors_return_components() {
        let k = FlowKey::new([1, 2, 3, 4].into(), [5, 6, 7, 8].into(), 1000, 2000, 17);
        assert_eq!(k.src_ip().octets(), [1, 2, 3, 4]);
        assert_eq!(k.dst_ip().octets(), [5, 6, 7, 8]);
        assert_eq!(k.src_port(), 1000);
        assert_eq!(k.dst_port(), 2000);
        assert_eq!(k.protocol(), 17);
    }
}
