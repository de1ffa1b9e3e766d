//! A persistent (structurally-shared) hash array mapped trie.
//!
//! This is the functional core under [`SnapMap`](crate::SnapMap): a clone
//! shares the whole trie, so taking a snapshot of the concurrent map is
//! O(1) — exactly the property the paper's `LazyTrieMap` needs from
//! Scala's `TrieMap`.
//!
//! Updates follow the `Arc::make_mut` idiom: a node on the key's path is
//! edited in place while this map is its only owner, and copied at the
//! first node another clone shares. A copy bumps every child's count, so
//! the rest of the path is copied too. No clone ever sees an update made
//! after it was taken.

use std::borrow::Borrow;
use std::collections::hash_map::RandomState;
use std::fmt;
use std::hash::{BuildHasher, Hash};
use std::sync::Arc;

const BITS: u32 = 5;
const FANOUT: u32 = 1 << BITS; // 32
const MASK: u64 = (FANOUT - 1) as u64;
const MAX_SHIFT: u32 = 60; // 64 bits of hash / 5 bits per level, floored to a multiple of 5

#[derive(Clone)]
enum Node<K, V> {
    Leaf {
        hash: u64,
        key: K,
        value: V,
    },
    /// All entries share the same full 64-bit hash.
    Collision {
        hash: u64,
        entries: Vec<(K, V)>,
    },
    Branch {
        bitmap: u32,
        children: Vec<Arc<Node<K, V>>>,
    },
}

impl<K, V> Node<K, V> {
    fn is_branch(&self) -> bool {
        matches!(self, Node::Branch { .. })
    }
}

#[inline]
fn index_bit(hash: u64, shift: u32) -> (usize, u32) {
    let idx = ((hash >> shift) & MASK) as u32;
    (idx as usize, 1u32 << idx)
}

#[inline]
fn child_slot(bitmap: u32, bit: u32) -> usize {
    (bitmap & (bit - 1)).count_ones() as usize
}

/// A persistent hash map with O(1) clone.
///
/// Updates never affect existing clones. Nodes this map owns alone are
/// edited in place; nodes shared with a clone are copied along the key's
/// path. An update after a clone costs O(log n) allocations; one with no
/// clone held allocates only for the entries it adds.
///
/// # Examples
///
/// ```
/// use proust_conc::Hamt;
///
/// let mut map = Hamt::new();
/// map.insert(1, "one");
/// let snapshot = map.clone(); // O(1)
/// map.insert(2, "two");
/// assert_eq!(snapshot.len(), 1);
/// assert_eq!(map.len(), 2);
/// ```
pub struct Hamt<K, V, S = RandomState> {
    root: Option<Arc<Node<K, V>>>,
    len: usize,
    hasher: S,
}

impl<K, V, S: Clone> Clone for Hamt<K, V, S> {
    fn clone(&self) -> Self {
        Hamt { root: self.root.clone(), len: self.len, hasher: self.hasher.clone() }
    }
}

impl<K: fmt::Debug, V: fmt::Debug, S> fmt::Debug for Hamt<K, V, S>
where
    K: Hash + Eq + Clone,
    V: Clone,
    S: BuildHasher,
{
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl<K, V> Hamt<K, V, RandomState> {
    /// Create an empty map with a random hasher.
    pub fn new() -> Self {
        Hamt { root: None, len: 0, hasher: RandomState::new() }
    }
}

impl<K, V> Default for Hamt<K, V, RandomState> {
    fn default() -> Self {
        Hamt::new()
    }
}

impl<K, V, S> Hamt<K, V, S> {
    /// Create an empty map using `hasher`.
    pub fn with_hasher(hasher: S) -> Self {
        Hamt { root: None, len: 0, hasher }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl<K, V, S> Hamt<K, V, S>
where
    K: Hash + Eq + Clone,
    V: Clone,
    S: BuildHasher,
{
    fn hash_of<Q: Hash + ?Sized>(&self, key: &Q) -> u64 {
        self.hasher.hash_one(key)
    }

    /// Look up a key.
    pub fn get<Q>(&self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.find(self.hash_of(key), key)
    }

    fn find<Q>(&self, hash: u64, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let mut node = self.root.as_deref()?;
        let mut shift = 0;
        loop {
            match node {
                Node::Leaf { hash: h, key: k, value } => {
                    return (*h == hash && k.borrow() == key).then_some(value);
                }
                Node::Collision { hash: h, entries } => {
                    if *h != hash {
                        return None;
                    }
                    return entries.iter().find(|(k, _)| k.borrow() == key).map(|(_, v)| v);
                }
                Node::Branch { bitmap, children } => {
                    let (_, bit) = index_bit(hash, shift);
                    if bitmap & bit == 0 {
                        return None;
                    }
                    node = &children[child_slot(*bitmap, bit)];
                    shift = (shift + BITS).min(MAX_SHIFT);
                }
            }
        }
    }

    /// Whether the map contains `key`.
    pub fn contains_key<Q>(&self, key: &Q) -> bool
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.get(key).is_some()
    }

    /// Insert a key/value pair, returning the previous value if any.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        let hash = self.hash_of(&key);
        let old = match &mut self.root {
            Some(root) => insert_at(root, hash, key, value, 0),
            None => {
                self.root = Some(Arc::new(Node::Leaf { hash, key, value }));
                None
            }
        };
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    /// Remove a key, returning its value if present.
    pub fn remove<Q>(&mut self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let hash = self.hash_of(key);
        // Look first, so that a miss never copies a shared path.
        self.find(hash, key)?;
        let root = self.root.as_mut()?;
        let (old, emptied) = remove_at(root, hash, key, 0);
        if emptied {
            self.root = None;
        }
        self.len -= 1;
        Some(old)
    }

    /// Iterate over entries in unspecified order.
    pub fn iter(&self) -> Iter<'_, K, V> {
        Iter {
            stack: self
                .root
                .as_deref()
                .map(|n| vec![Cursor { node: n, pos: 0 }])
                .unwrap_or_default(),
        }
    }

    /// Iterate over keys in unspecified order.
    pub fn keys(&self) -> impl Iterator<Item = &K> {
        self.iter().map(|(k, _)| k)
    }

    /// Iterate over values in unspecified order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.iter().map(|(_, v)| v)
    }
}

/// Insert below `node`, editing in place the nodes this map owns alone.
/// `Arc::make_mut` copies a shared node first, and with it the rest of
/// the path (see the module docs), so nodes a clone can reach are never
/// written.
fn insert_at<K, V>(node: &mut Arc<Node<K, V>>, hash: u64, key: K, value: V, shift: u32) -> Option<V>
where
    K: Hash + Eq + Clone,
    V: Clone,
{
    // A leaf or collision that `key` does not belong to is not edited: it
    // joins `key` in a new collision or moves down under a new branch.
    match node.as_ref() {
        Node::Leaf { hash: h, key: k, value: v } if *h == hash && *k != key => {
            let entries = vec![(k.clone(), v.clone()), (key, value)];
            *node = Arc::new(Node::Collision { hash, entries });
            return None;
        }
        Node::Leaf { hash: h, .. } | Node::Collision { hash: h, .. } if *h != hash => {
            let h = *h;
            let leaf = Arc::new(Node::Leaf { hash, key, value });
            *node = merge_leaves(Arc::clone(node), h, leaf, hash, shift);
            return None;
        }
        _ => {}
    }
    match Arc::make_mut(node) {
        Node::Leaf { value: v, .. } => Some(std::mem::replace(v, value)),
        Node::Collision { entries, .. } => {
            if let Some(slot) = entries.iter_mut().find(|(k, _)| *k == key) {
                return Some(std::mem::replace(&mut slot.1, value));
            }
            entries.push((key, value));
            None
        }
        Node::Branch { bitmap, children } => {
            let (_, bit) = index_bit(hash, shift);
            let slot = child_slot(*bitmap, bit);
            if *bitmap & bit != 0 {
                insert_at(&mut children[slot], hash, key, value, (shift + BITS).min(MAX_SHIFT))
            } else {
                children.insert(slot, Arc::new(Node::Leaf { hash, key, value }));
                *bitmap |= bit;
                None
            }
        }
    }
}

/// Build the branch structure distinguishing two nodes whose hashes differ
/// somewhere at or below `shift`.
fn merge_leaves<K, V>(
    a: Arc<Node<K, V>>,
    a_hash: u64,
    b: Arc<Node<K, V>>,
    b_hash: u64,
    shift: u32,
) -> Arc<Node<K, V>> {
    debug_assert_ne!(a_hash, b_hash);
    let (a_idx, a_bit) = index_bit(a_hash, shift);
    let (b_idx, b_bit) = index_bit(b_hash, shift);
    if a_idx == b_idx {
        let inner = merge_leaves(a, a_hash, b, b_hash, (shift + BITS).min(MAX_SHIFT));
        Arc::new(Node::Branch { bitmap: a_bit, children: vec![inner] })
    } else {
        let children = if a_idx < b_idx { vec![a, b] } else { vec![b, a] };
        Arc::new(Node::Branch { bitmap: a_bit | b_bit, children })
    }
}

/// Remove `key`, which must be present below `node`, editing in place
/// as [`insert_at`] does. Returns the value and whether `node` itself is
/// now empty, in which case the caller unlinks it.
fn remove_at<K, V, Q>(node: &mut Arc<Node<K, V>>, hash: u64, key: &Q, shift: u32) -> (V, bool)
where
    K: Hash + Eq + Clone + Borrow<Q>,
    V: Clone,
    Q: Hash + Eq + ?Sized,
{
    // The key is present, so a leaf on its path is its own leaf.
    if let Node::Leaf { value, .. } = node.as_ref() {
        return (value.clone(), true);
    }
    let inner = Arc::make_mut(node);
    match inner {
        Node::Leaf { .. } => unreachable!("leaves are handled above"),
        Node::Collision { entries, .. } => {
            let pos = entries.iter().position(|(k, _)| k.borrow() == key).expect("key is present");
            let (_, old) = entries.remove(pos);
            if entries.len() == 1 {
                let (key, value) = entries.pop().expect("collision retains one entry");
                *inner = Node::Leaf { hash, key, value };
            }
            (old, false)
        }
        Node::Branch { bitmap, children } => {
            let (_, bit) = index_bit(hash, shift);
            let slot = child_slot(*bitmap, bit);
            let (old, emptied) =
                remove_at(&mut children[slot], hash, key, (shift + BITS).min(MAX_SHIFT));
            if emptied {
                if children.len() == 1 {
                    return (old, true);
                }
                children.remove(slot);
                *bitmap &= !bit;
            }
            // Collapse a branch that holds a single non-branch child.
            if children.len() == 1 && !children[0].is_branch() {
                *node = children.pop().expect("one child left");
            }
            (old, false)
        }
    }
}

struct Cursor<'a, K, V> {
    node: &'a Node<K, V>,
    pos: usize,
}

/// Iterator over the entries of a [`Hamt`].
pub struct Iter<'a, K, V> {
    stack: Vec<Cursor<'a, K, V>>,
}

impl<K, V> fmt::Debug for Iter<'_, K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("hamt::Iter").field("depth", &self.stack.len()).finish()
    }
}

impl<'a, K, V> Iterator for Iter<'a, K, V> {
    type Item = (&'a K, &'a V);

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            let top = self.stack.last_mut()?;
            match top.node {
                Node::Leaf { key, value, .. } => {
                    self.stack.pop();
                    return Some((key, value));
                }
                Node::Collision { entries, .. } => {
                    if top.pos < entries.len() {
                        let (k, v) = &entries[top.pos];
                        top.pos += 1;
                        return Some((k, v));
                    }
                    self.stack.pop();
                }
                Node::Branch { children, .. } => {
                    if top.pos < children.len() {
                        let child = &children[top.pos];
                        top.pos += 1;
                        self.stack.push(Cursor { node: child, pos: 0 });
                    } else {
                        self.stack.pop();
                    }
                }
            }
        }
    }
}

impl<K, V, S> FromIterator<(K, V)> for Hamt<K, V, S>
where
    K: Hash + Eq + Clone,
    V: Clone,
    S: BuildHasher + Default,
{
    fn from_iter<I: IntoIterator<Item = (K, V)>>(iter: I) -> Self {
        let mut map = Hamt::with_hasher(S::default());
        for (k, v) in iter {
            map.insert(k, v);
        }
        map
    }
}

impl<K, V, S> Extend<(K, V)> for Hamt<K, V, S>
where
    K: Hash + Eq + Clone,
    V: Clone,
    S: BuildHasher,
{
    fn extend<I: IntoIterator<Item = (K, V)>>(&mut self, iter: I) {
        for (k, v) in iter {
            self.insert(k, v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut map = Hamt::new();
        assert_eq!(map.insert(1, "a"), None);
        assert_eq!(map.insert(2, "b"), None);
        assert_eq!(map.insert(1, "c"), Some("a"));
        assert_eq!(map.get(&1), Some(&"c"));
        assert_eq!(map.get(&3), None);
        assert_eq!(map.remove(&1), Some("c"));
        assert_eq!(map.remove(&1), None);
        assert_eq!(map.len(), 1);
    }

    #[test]
    fn snapshot_isolation_via_clone() {
        let mut map = Hamt::new();
        for i in 0..100 {
            map.insert(i, i * 10);
        }
        let snap = map.clone();
        for i in 0..100 {
            map.remove(&i);
        }
        assert!(map.is_empty());
        assert_eq!(snap.len(), 100);
        for i in 0..100 {
            assert_eq!(snap.get(&i), Some(&(i * 10)));
        }
    }

    #[test]
    fn iterates_all_entries() {
        let mut map = Hamt::new();
        for i in 0..500 {
            map.insert(i, ());
        }
        let mut keys: Vec<_> = map.keys().copied().collect();
        keys.sort_unstable();
        assert_eq!(keys, (0..500).collect::<Vec<_>>());
    }

    /// A hasher that forces every key into the same bucket, exercising the
    /// collision paths.
    #[derive(Clone, Default)]
    struct Colliding;
    struct CollidingHasher;
    impl std::hash::Hasher for CollidingHasher {
        fn finish(&self) -> u64 {
            42
        }
        fn write(&mut self, _bytes: &[u8]) {}
    }
    impl BuildHasher for Colliding {
        type Hasher = CollidingHasher;
        fn build_hasher(&self) -> CollidingHasher {
            CollidingHasher
        }
    }

    #[test]
    fn full_hash_collisions_are_handled() {
        let mut map: Hamt<u32, u32, Colliding> = Hamt::with_hasher(Colliding);
        for i in 0..20 {
            assert_eq!(map.insert(i, i), None);
        }
        assert_eq!(map.len(), 20);
        for i in 0..20 {
            assert_eq!(map.get(&i), Some(&i));
        }
        assert_eq!(map.insert(5, 50), Some(5));
        for i in 0..20 {
            let expect = if i == 5 { 50 } else { i };
            assert_eq!(map.remove(&i), Some(expect));
        }
        assert!(map.is_empty());
    }

    #[test]
    fn matches_std_hashmap_on_random_ops() {
        let mut seed = 0x12345678u64;
        let mut rng = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        let mut model: HashMap<u16, u64> = HashMap::new();
        let mut map: Hamt<u16, u64> = Hamt::new();
        for _ in 0..20_000 {
            let key = (rng() % 256) as u16;
            match rng() % 3 {
                0 => {
                    let value = rng();
                    assert_eq!(map.insert(key, value), model.insert(key, value));
                }
                1 => assert_eq!(map.remove(&key), model.remove(&key)),
                _ => assert_eq!(map.get(&key), model.get(&key)),
            }
            assert_eq!(map.len(), model.len());
        }
    }

    #[test]
    fn borrowed_key_lookup() {
        let mut map: Hamt<String, u32> = Hamt::new();
        map.insert("alpha".to_string(), 1);
        assert_eq!(map.get("alpha"), Some(&1));
        assert!(map.contains_key("alpha"));
        assert_eq!(map.remove("alpha"), Some(1));
    }

    #[test]
    fn from_iterator_collects() {
        let map: Hamt<u32, u32> = (0..10).map(|i| (i, i)).collect();
        assert_eq!(map.len(), 10);
    }
}
