//! Macro expansion for tool wrappers.
//!
//! Galaxy wrappers factor shared XML into `macros.xml` files (the paper's
//! Code 1 is such a file). A wrapper references them with:
//!
//! ```xml
//! <macros>
//!   <import>macros.xml</import>
//!   <xml name="inline_macro">...</xml>
//!   <token name="@VERSION@">1.4.3</token>
//! </macros>
//! ...
//! <expand macro="requirements"/>
//! ```
//!
//! `<xml name="...">` defines an element macro whose *children* replace any
//! `<expand macro="..."/>` element; `<token name="@X@">` defines a textual
//! token substituted into attribute values and text content.

use crate::error::GalaxyError;
use std::collections::HashMap;
use xmlparse::{parse, Element, Node};

/// Provides the contents of importable macro files by name — the
/// "filesystem" of a tool directory.
#[derive(Debug, Clone, Default)]
pub struct MacroLibrary {
    files: HashMap<String, String>,
}

impl MacroLibrary {
    /// An empty library.
    pub fn new() -> Self {
        Self::default()
    }

    /// A library of the given `(file name, XML content)` macro files, as
    /// a tool directory ships them (e.g. the paper's Code 1 `macros.xml`).
    pub fn from_files<'a>(files: impl IntoIterator<Item = (&'a str, &'a str)>) -> Self {
        let files = files.into_iter().map(|(name, xml)| (name.to_string(), xml.to_string()));
        MacroLibrary { files: files.collect() }
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.files.get(name).map(String::as_str)
    }
}

/// Definitions gathered from `<macros>` sections and imported files.
#[derive(Debug, Default)]
struct Definitions {
    xml_macros: HashMap<String, Vec<Node>>,
    tokens: Vec<(String, String)>,
}

/// Expand all macros in a parsed tool element: collect definitions from
/// inline `<macros>` sections and `<import>`ed files, replace every
/// `<expand macro="..."/>`, substitute tokens, and strip the `<macros>`
/// section itself.
pub fn expand_macros(root: &Element, library: &MacroLibrary) -> Result<Element, GalaxyError> {
    let mut defs = Definitions::default();

    for macros_el in root.find_all("macros") {
        collect_definitions(macros_el, library, &mut defs)?;
    }

    let mut expanded = expand_element(root, &defs)?;
    strip_macros_sections(&mut expanded);
    substitute_tokens(&mut expanded, &defs.tokens);
    Ok(expanded)
}

fn collect_definitions(
    macros_el: &Element,
    library: &MacroLibrary,
    defs: &mut Definitions,
) -> Result<(), GalaxyError> {
    for child in macros_el.child_elements() {
        match child.name() {
            "import" => {
                let file_name = child.text();
                let content = library
                    .get(&file_name)
                    .ok_or_else(|| GalaxyError::UnknownMacro(format!("file {file_name}")))?;
                let doc = parse(content)?;
                if doc.root().name() != "macros" {
                    return Err(GalaxyError::BadWrapper(format!(
                        "macro file {file_name} root must be <macros>, found <{}>",
                        doc.root().name()
                    )));
                }
                collect_definitions(doc.root(), library, defs)?;
            }
            "xml" => {
                let name = child
                    .attr("name")
                    .ok_or_else(|| GalaxyError::BadWrapper("<xml> macro without name".into()))?;
                defs.xml_macros.insert(name.to_string(), child.children().to_vec());
            }
            "token" => {
                let name = child
                    .attr("name")
                    .ok_or_else(|| GalaxyError::BadWrapper("<token> without name".into()))?;
                defs.tokens.push((name.to_string(), child.text()));
            }
            // Real Galaxy also allows bare requirement elements etc. inside
            // macros files only via named macros; ignore other children.
            _ => {}
        }
    }
    Ok(())
}

fn expand_element(element: &Element, defs: &Definitions) -> Result<Element, GalaxyError> {
    let mut out = Element::new(element.name());
    for (k, v) in element.attrs() {
        out.set_attr(k.clone(), v.clone());
    }
    for node in element.children() {
        match node {
            Node::Element(child) if child.name() == "expand" => {
                let macro_name = child
                    .attr("macro")
                    .ok_or_else(|| GalaxyError::BadWrapper("<expand> without macro=".into()))?;
                let body = defs
                    .xml_macros
                    .get(macro_name)
                    .ok_or_else(|| GalaxyError::UnknownMacro(macro_name.to_string()))?;
                for replacement in body {
                    match replacement {
                        Node::Element(e) => out.push_element(expand_element(e, defs)?),
                        other => out.push(other.clone()),
                    }
                }
            }
            Node::Element(child) => out.push_element(expand_element(child, defs)?),
            other => out.push(other.clone()),
        }
    }
    Ok(out)
}

fn strip_macros_sections(element: &mut Element) {
    element.children_mut().retain(|n| !matches!(n, Node::Element(e) if e.name() == "macros"));
    for node in element.children_mut() {
        if let Node::Element(e) = node {
            strip_macros_sections(e);
        }
    }
}

fn substitute_tokens(element: &mut Element, tokens: &[(String, String)]) {
    if tokens.is_empty() {
        return;
    }
    let subst = |s: &str| -> String {
        let mut out = s.to_string();
        for (name, value) in tokens {
            out = out.replace(name.as_str(), value);
        }
        out
    };
    let attrs: Vec<(String, String)> =
        element.attrs().iter().map(|(k, v)| (k.clone(), subst(v))).collect();
    for (k, v) in attrs {
        element.set_attr(k, v);
    }
    for node in element.children_mut() {
        match node {
            Node::Text(t) | Node::CData(t) => *t = subst(t),
            Node::Element(e) => substitute_tokens(e, tokens),
            Node::Comment(_) => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's Code 1 `macros.xml`, verbatim in structure.
    const PAPER_MACROS: &str = r#"<macros>
        <xml name="requirements">
            <requirements>
                <requirement type="package" version="1.4.3">racon</requirement>
                <requirement type="compute">gpu</requirement>
            </requirements>
        </xml>
        <token name="@TOOL_VERSION@">1.4.3</token>
    </macros>"#;

    #[test]
    fn expands_imported_macro_like_paper_code1() {
        let lib = MacroLibrary::from_files([("macros.xml", PAPER_MACROS)]);
        let tool = parse(
            r#"<tool id="racon" version="@TOOL_VERSION@">
                 <macros><import>macros.xml</import></macros>
                 <expand macro="requirements"/>
               </tool>"#,
        )
        .unwrap();
        let expanded = expand_macros(tool.root(), &lib).unwrap();
        // <macros> stripped, <expand> replaced by <requirements>.
        assert!(expanded.child("macros").is_none());
        let reqs = expanded.find_all("requirement");
        assert_eq!(reqs.len(), 2);
        assert_eq!(reqs[1].attr("type"), Some("compute"));
        assert_eq!(reqs[1].text(), "gpu");
        // Token substituted in the attribute.
        assert_eq!(expanded.attr("version"), Some("1.4.3"));
    }

    #[test]
    fn inline_xml_macro_expansion() {
        let tool = parse(
            r#"<tool id="t">
                 <macros><xml name="io"><inputs><param name="x"/></inputs></xml></macros>
                 <expand macro="io"/>
               </tool>"#,
        )
        .unwrap();
        let expanded = expand_macros(tool.root(), &MacroLibrary::new()).unwrap();
        assert!(expanded.find("param").is_some());
    }

    #[test]
    fn nested_expand_inside_macro_body() {
        let tool = parse(
            r#"<tool id="t">
                 <macros>
                   <xml name="outer"><wrap><expand macro="inner"/></wrap></xml>
                   <xml name="inner"><leaf/></xml>
                 </macros>
                 <expand macro="outer"/>
               </tool>"#,
        )
        .unwrap();
        let expanded = expand_macros(tool.root(), &MacroLibrary::new()).unwrap();
        assert!(expanded.find("wrap").unwrap().find("leaf").is_some());
    }

    #[test]
    fn token_substitution_in_text() {
        let tool = parse(
            r#"<tool id="t">
                 <macros><token name="@EXE@">racon_gpu</token></macros>
                 <command>@EXE@ --help</command>
               </tool>"#,
        )
        .unwrap();
        let expanded = expand_macros(tool.root(), &MacroLibrary::new()).unwrap();
        assert_eq!(expanded.find_text("command").unwrap(), "racon_gpu --help");
    }

    #[test]
    fn unknown_macro_errors() {
        let tool = parse(r#"<tool id="t"><expand macro="nope"/></tool>"#).unwrap();
        assert!(matches!(
            expand_macros(tool.root(), &MacroLibrary::new()),
            Err(GalaxyError::UnknownMacro(_))
        ));
    }

    #[test]
    fn missing_import_file_errors() {
        let tool =
            parse(r#"<tool id="t"><macros><import>gone.xml</import></macros></tool>"#).unwrap();
        assert!(matches!(
            expand_macros(tool.root(), &MacroLibrary::new()),
            Err(GalaxyError::UnknownMacro(_))
        ));
    }

    #[test]
    fn bad_macro_file_root_errors() {
        let lib = MacroLibrary::from_files([("m.xml", "<notmacros/>")]);
        let tool = parse(r#"<tool id="t"><macros><import>m.xml</import></macros></tool>"#).unwrap();
        assert!(matches!(expand_macros(tool.root(), &lib), Err(GalaxyError::BadWrapper(_))));
    }
}
