//! The DOM tree: [`Document`], [`Element`] and [`Node`], plus
//! BeautifulSoup-style query helpers (`find`, `find_all`).

/// A parsed XML document: an optional XML declaration/PIs plus one root
/// element.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Document {
    /// Processing instructions (including the XML declaration) that appeared
    /// before the root element, verbatim.
    pub prolog: Vec<String>,
    root: Element,
}

impl Document {
    /// Build a document from a root element.
    pub fn new(root: Element) -> Self {
        Document { prolog: Vec::new(), root }
    }

    /// The root element.
    pub fn root(&self) -> &Element {
        &self.root
    }

    /// Find the first descendant element (including the root itself) with
    /// the given tag name, depth-first.
    pub fn find(&self, name: &str) -> Option<&Element> {
        if self.root.name() == name {
            Some(&self.root)
        } else {
            self.root.find(name)
        }
    }
}

/// A child of an element.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Node {
    /// A nested element.
    Element(Element),
    /// Character data (entities already resolved).
    Text(String),
    /// A comment (without the `<!--` / `-->` delimiters).
    Comment(String),
    /// A CDATA section, kept distinct so writers can re-emit it verbatim.
    CData(String),
}

impl Node {
    /// The contained element, if this node is one.
    pub fn as_element(&self) -> Option<&Element> {
        match self {
            Node::Element(e) => Some(e),
            _ => None,
        }
    }
}

/// An XML element: a tag name, ordered attributes, and ordered children.
///
/// Attribute order is preserved because Galaxy tool wrappers and
/// `nvidia-smi` output are written and compared textually.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Element {
    name: String,
    attributes: Vec<(String, String)>,
    children: Vec<Node>,
}

impl Element {
    /// Create an element with no attributes or children.
    pub fn new(name: impl Into<String>) -> Self {
        Element { name: name.into(), attributes: Vec::new(), children: Vec::new() }
    }

    /// Builder-style: add an attribute.
    pub fn with_attr(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.set_attr(key, value);
        self
    }

    /// Builder-style: add a text child.
    pub fn with_text(mut self, text: impl Into<String>) -> Self {
        self.children.push(Node::Text(text.into()));
        self
    }

    /// Builder-style: add a child element.
    pub fn with_child(mut self, child: Element) -> Self {
        self.children.push(Node::Element(child));
        self
    }

    /// Tag name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Attribute value by key.
    pub fn attr(&self, key: &str) -> Option<&str> {
        self.attributes.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }

    /// Set (or replace) an attribute.
    pub fn set_attr(&mut self, key: impl Into<String>, value: impl Into<String>) {
        let key = key.into();
        let value = value.into();
        if let Some(slot) = self.attributes.iter_mut().find(|(k, _)| *k == key) {
            slot.1 = value;
        } else {
            self.attributes.push((key, value));
        }
    }

    /// All attributes in document order.
    pub fn attrs(&self) -> &[(String, String)] {
        &self.attributes
    }

    /// All child nodes in document order.
    pub fn children(&self) -> &[Node] {
        &self.children
    }

    /// Mutable child nodes.
    pub fn children_mut(&mut self) -> &mut Vec<Node> {
        &mut self.children
    }

    /// Append a child node.
    pub fn push(&mut self, node: Node) {
        self.children.push(node);
    }

    /// Append a child element.
    pub fn push_element(&mut self, child: Element) {
        self.children.push(Node::Element(child));
    }

    /// Iterator over direct child elements.
    pub fn child_elements(&self) -> impl Iterator<Item = &Element> {
        self.children.iter().filter_map(Node::as_element)
    }

    /// Direct child elements with a given tag name.
    pub fn children_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Element> + 'a {
        self.child_elements().filter(move |e| e.name == name)
    }

    /// First direct child element with the given tag name (non-recursive).
    pub fn child(&self, name: &str) -> Option<&Element> {
        self.child_elements().find(|e| e.name == name)
    }

    /// First *descendant* element with the given tag name (depth-first,
    /// excluding `self`). Mirrors BeautifulSoup's `find`.
    pub fn find(&self, name: &str) -> Option<&Element> {
        for child in self.child_elements() {
            if child.name == name {
                return Some(child);
            }
            if let Some(found) = child.find(name) {
                return Some(found);
            }
        }
        None
    }

    /// All descendant elements with the given tag name in document order
    /// (excluding `self`). Mirrors BeautifulSoup's `find_all`.
    pub fn find_all<'a>(&'a self, name: &str) -> Vec<&'a Element> {
        let mut out = Vec::new();
        self.collect_named(name, &mut out);
        out
    }

    fn collect_named<'a>(&'a self, name: &str, out: &mut Vec<&'a Element>) {
        for child in self.child_elements() {
            if child.name == name {
                out.push(child);
            }
            child.collect_named(name, out);
        }
    }

    /// Concatenated text of all descendant text/CDATA nodes, trimmed.
    pub fn text(&self) -> String {
        let mut out = String::new();
        self.collect_text(&mut out);
        out.trim().to_string()
    }

    fn collect_text(&self, out: &mut String) {
        for node in &self.children {
            match node {
                Node::Text(t) | Node::CData(t) => out.push_str(t),
                Node::Element(e) => e.collect_text(out),
                Node::Comment(_) => {}
            }
        }
    }

    /// Convenience: the trimmed text of the first descendant with `name`.
    pub fn find_text(&self, name: &str) -> Option<String> {
        self.find(name).map(|e| e.text())
    }

    /// Number of descendant elements (excluding `self`).
    pub fn descendant_count(&self) -> usize {
        self.child_elements().map(|c| 1 + c.descendant_count()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Element {
        Element::new("gpu")
            .with_attr("id", "0")
            .with_child(Element::new("minor_number").with_text("0"))
            .with_child(
                Element::new("processes")
                    .with_child(
                        Element::new("process_info")
                            .with_child(Element::new("pid").with_text("39953")),
                    )
                    .with_child(
                        Element::new("process_info")
                            .with_child(Element::new("pid").with_text("41105")),
                    ),
            )
    }

    #[test]
    fn find_is_depth_first() {
        let e = sample();
        assert_eq!(e.find("pid").unwrap().text(), "39953");
    }

    #[test]
    fn find_all_collects_in_order() {
        let e = sample();
        let pids: Vec<String> = e.find_all("pid").iter().map(|p| p.text()).collect();
        assert_eq!(pids, vec!["39953", "41105"]);
    }

    #[test]
    fn child_is_non_recursive() {
        let e = sample();
        assert!(e.child("pid").is_none());
        assert!(e.child("processes").is_some());
    }

    #[test]
    fn attr_set_replaces() {
        let mut e = Element::new("a");
        e.set_attr("k", "1");
        e.set_attr("k", "2");
        assert_eq!(e.attr("k"), Some("2"));
        assert_eq!(e.attrs().len(), 1);
    }

    #[test]
    fn text_concatenates_and_trims() {
        let e = Element::new("a")
            .with_text("  hello ")
            .with_child(Element::new("b").with_text("world"))
            .with_text("  ");
        assert_eq!(e.text(), "hello world");
    }

    #[test]
    fn descendant_count() {
        assert_eq!(sample().descendant_count(), 6);
    }
}
