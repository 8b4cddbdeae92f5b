//! Per-tag inverted lists: for each element/attribute name, the node ids
//! carrying it, in document order. These are the "element lists" that the
//! structural-join algorithms (crate `xqr-joins`) merge, and what the
//! engine uses to seed `//name` scans without walking the whole tree.

use std::collections::HashMap;
use xqr_xdm::{NameId, NodeKind};

#[derive(Debug, Default)]
pub struct TagIndex {
    elements: HashMap<NameId, Vec<u32>>,
    attributes: HashMap<NameId, Vec<u32>>,
}

impl TagIndex {
    /// Build from the parallel kind/name arrays (node id == array index,
    /// already in document order). The lists are trimmed to size: the
    /// index lives as long as its document and never grows.
    pub fn build(kinds: &[NodeKind], names: &[NameId]) -> Self {
        let mut idx = TagIndex::default();
        for (i, (&kind, &name)) in kinds.iter().zip(names).enumerate() {
            match kind {
                NodeKind::Element => idx.elements.entry(name).or_default().push(i as u32),
                NodeKind::Attribute => idx.attributes.entry(name).or_default().push(i as u32),
                _ => {}
            }
        }
        for map in [&mut idx.elements, &mut idx.attributes] {
            map.values_mut().for_each(Vec::shrink_to_fit);
            map.shrink_to_fit();
        }
        idx
    }

    pub fn elements(&self, name: NameId) -> &[u32] {
        self.elements.get(&name).map(Vec::as_slice).unwrap_or(&[])
    }

    pub fn attributes(&self, name: NameId) -> &[u32] {
        self.attributes.get(&name).map(Vec::as_slice).unwrap_or(&[])
    }

    pub fn element_names(&self) -> impl Iterator<Item = NameId> + '_ {
        self.elements.keys().copied()
    }

    pub fn memory_bytes(&self) -> usize {
        let entries: usize = self
            .elements
            .values()
            .chain(self.attributes.values())
            .map(|v| v.len() * 4 + 16)
            .sum();
        entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_separates_kinds() {
        let kinds = [
            NodeKind::Document,
            NodeKind::Element,
            NodeKind::Attribute,
            NodeKind::Element,
            NodeKind::Text,
        ];
        let names = [NameId(0), NameId(1), NameId(1), NameId(1), NameId(0)];
        let idx = TagIndex::build(&kinds, &names);
        assert_eq!(idx.elements(NameId(1)), &[1, 3]);
        assert_eq!(idx.attributes(NameId(1)), &[2]);
        assert_eq!(idx.elements(NameId(9)), &[] as &[u32]);
    }
}
