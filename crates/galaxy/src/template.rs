//! A miniature Cheetah-like template engine.
//!
//! Galaxy tool wrappers embed their command lines as Cheetah templates.
//! This module implements the subset those wrappers use — and in
//! particular everything the paper's Code 3 (`racon.xml`) needs:
//!
//! * `$name` and `${name}` variable substitution;
//! * `#if <cond>` / `#else` / `#end if` blocks, where `<cond>` is a
//!   comparison (`$var == "lit"`, `$var != "lit"`, `$a == $b`), a bare
//!   truthiness test (`$var`), or a negation (`not <cond>`);
//! * `#for $item in $list` / `#end for`, iterating over comma-separated
//!   values;
//! * `##` comment lines.
//!
//! Directive lines must start (after indentation) with `#`; everything
//! else is literal text with inline substitutions.

use crate::error::GalaxyError;
use crate::params::ParamDict;

/// A parsed template, ready for repeated evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct Template {
    nodes: Vec<Node>,
}

#[derive(Debug, Clone, PartialEq)]
enum Node {
    Text(String),
    Var(String),
    If { cond: Cond, then: Vec<Node>, otherwise: Vec<Node> },
    For { var: String, list: String, body: Vec<Node> },
}

#[derive(Debug, Clone, PartialEq)]
enum Cond {
    Truthy(String),
    Not(Box<Cond>),
    Eq(Expr, Expr),
    Ne(Expr, Expr),
}

#[derive(Debug, Clone, PartialEq)]
enum Expr {
    Var(String),
    Lit(String),
}

impl Template {
    /// Parse the template source.
    pub fn parse(src: &str) -> Result<Template, GalaxyError> {
        let lines: Vec<&str> = src.split_inclusive('\n').collect();
        let mut pos = 0usize;
        let nodes = parse_block(&lines, &mut pos, None)?;
        Ok(Template { nodes })
    }

    /// Evaluate against `params`, producing the final text.
    pub fn render(&self, params: &ParamDict) -> Result<String, GalaxyError> {
        let mut out = String::new();
        render_nodes(&self.nodes, params, &mut out)?;
        Ok(out)
    }
}

/// Parse until `end` directive (or EOF when `end` is `None`).
fn parse_block(
    lines: &[&str],
    pos: &mut usize,
    end: Option<&str>,
) -> Result<Vec<Node>, GalaxyError> {
    let mut nodes = Vec::new();
    while *pos < lines.len() {
        let line = lines[*pos];
        let trimmed = line.trim_start();
        if let Some(directive) = trimmed.strip_prefix('#') {
            let directive = directive.trim_end();
            if directive.starts_with('#') {
                // `##` comment line: swallow it.
                *pos += 1;
                continue;
            }
            if let Some(end_kw) = end {
                if directive_matches(directive, end_kw) {
                    return Ok(nodes); // caller consumes the end line
                }
            }
            if directive_matches(directive, "else") {
                // Handled by the #if parser; seeing it here means we're in
                // the `then` branch — return and let the caller decide.
                if end.is_some() {
                    return Ok(nodes);
                }
                return Err(GalaxyError::Template("#else outside #if".into()));
            }
            if let Some(cond_src) = directive.strip_prefix("if ") {
                *pos += 1;
                let cond = parse_cond(cond_src.trim())?;
                let then = parse_block(lines, pos, Some("end if"))?;
                let mut otherwise = Vec::new();
                // Either we're on `#else` or `#end if` now.
                if *pos < lines.len()
                    && directive_matches(
                        lines[*pos].trim_start().trim_start_matches('#').trim_end(),
                        "else",
                    )
                    && lines[*pos].trim_start().starts_with('#')
                {
                    *pos += 1;
                    otherwise = parse_block(lines, pos, Some("end if"))?;
                }
                expect_end(lines, pos, "end if")?;
                nodes.push(Node::If { cond, then, otherwise });
                continue;
            }
            if let Some(for_src) = directive.strip_prefix("for ") {
                *pos += 1;
                let (var, list) = parse_for_header(for_src.trim())?;
                let body = parse_block(lines, pos, Some("end for"))?;
                expect_end(lines, pos, "end for")?;
                nodes.push(Node::For { var, list, body });
                continue;
            }
            return Err(GalaxyError::Template(format!("unknown directive: #{directive}")));
        }
        // Plain content line: inline substitution.
        *pos += 1;
        parse_inline(line, &mut nodes)?;
    }
    if let Some(end_kw) = end {
        return Err(GalaxyError::Template(format!("missing #{end_kw}")));
    }
    Ok(nodes)
}

fn directive_matches(directive: &str, keyword: &str) -> bool {
    // Accept both "end if" and "endif" spellings, as Cheetah does.
    let d: String = directive.split_whitespace().collect::<Vec<_>>().join(" ");
    let k_spaced = keyword.to_string();
    let k_joined: String = keyword.split_whitespace().collect();
    d == k_spaced || d == k_joined
}

fn expect_end(lines: &[&str], pos: &mut usize, keyword: &str) -> Result<(), GalaxyError> {
    if *pos >= lines.len() {
        return Err(GalaxyError::Template(format!("missing #{keyword}")));
    }
    let trimmed = lines[*pos].trim_start();
    let directive = trimmed.strip_prefix('#').unwrap_or("").trim_end();
    if directive_matches(directive, keyword) {
        *pos += 1;
        Ok(())
    } else {
        Err(GalaxyError::Template(format!("expected #{keyword}, found {trimmed:?}")))
    }
}

fn parse_for_header(src: &str) -> Result<(String, String), GalaxyError> {
    // "$item in $list"
    let mut parts = src.split(" in ");
    let var = parts
        .next()
        .map(str::trim)
        .and_then(|v| v.strip_prefix('$'))
        .ok_or_else(|| GalaxyError::Template(format!("bad #for header: {src}")))?;
    let list = parts
        .next()
        .map(str::trim)
        .and_then(|v| v.strip_prefix('$'))
        .ok_or_else(|| GalaxyError::Template(format!("bad #for header: {src}")))?;
    Ok((var.to_string(), list.to_string()))
}

fn parse_cond(src: &str) -> Result<Cond, GalaxyError> {
    if let Some(rest) = src.strip_prefix("not ") {
        return Ok(Cond::Not(Box::new(parse_cond(rest.trim())?)));
    }
    for (op, is_eq) in [("==", true), ("!=", false)] {
        if let Some(idx) = src.find(op) {
            let lhs = parse_expr(src[..idx].trim())?;
            let rhs = parse_expr(src[idx + 2..].trim())?;
            return Ok(if is_eq { Cond::Eq(lhs, rhs) } else { Cond::Ne(lhs, rhs) });
        }
    }
    match parse_expr(src)? {
        Expr::Var(v) => Ok(Cond::Truthy(v)),
        Expr::Lit(l) => Err(GalaxyError::Template(format!("literal condition: {l:?}"))),
    }
}

fn parse_expr(src: &str) -> Result<Expr, GalaxyError> {
    if let Some(var) = src.strip_prefix('$') {
        let var = var.trim_start_matches('{').trim_end_matches('}');
        if var.is_empty() || !is_var_name(var) {
            return Err(GalaxyError::Template(format!("bad variable: {src:?}")));
        }
        return Ok(Expr::Var(var.to_string()));
    }
    if (src.starts_with('"') && src.ends_with('"') && src.len() >= 2)
        || (src.starts_with('\'') && src.ends_with('\'') && src.len() >= 2)
    {
        return Ok(Expr::Lit(src[1..src.len() - 1].to_string()));
    }
    Err(GalaxyError::Template(format!("bad expression: {src:?}")))
}

fn is_var_name(s: &str) -> bool {
    let mut chars = s.chars();
    matches!(chars.next(), Some(c) if c.is_alphabetic() || c == '_')
        && chars.all(|c| c.is_alphanumeric() || c == '_' || c == '.')
}

/// Parse one line of literal text, splitting out `$var` / `${var}`.
fn parse_inline(line: &str, nodes: &mut Vec<Node>) -> Result<(), GalaxyError> {
    let mut text = String::new();
    let mut chars = line.char_indices().peekable();
    while let Some((_, ch)) = chars.next() {
        if ch != '$' {
            text.push(ch);
            continue;
        }
        // `$$` is an escaped dollar sign.
        if matches!(chars.peek(), Some((_, '$'))) {
            chars.next();
            text.push('$');
            continue;
        }
        let braced = matches!(chars.peek(), Some((_, '{')));
        if braced {
            chars.next();
        }
        let mut name = String::new();
        while let Some(&(_, c)) = chars.peek() {
            let ok = if braced { c != '}' } else { c.is_alphanumeric() || c == '_' || c == '.' };
            if !ok {
                break;
            }
            name.push(c);
            chars.next();
        }
        if braced {
            match chars.next() {
                Some((_, '}')) => {}
                _ => return Err(GalaxyError::Template("unterminated ${...}".into())),
            }
        }
        if name.is_empty() {
            text.push('$'); // lone `$`, treat literally
            continue;
        }
        if !text.is_empty() {
            nodes.push(Node::Text(std::mem::take(&mut text)));
        }
        nodes.push(Node::Var(name));
    }
    if !text.is_empty() {
        nodes.push(Node::Text(text));
    }
    Ok(())
}

fn render_nodes(nodes: &[Node], params: &ParamDict, out: &mut String) -> Result<(), GalaxyError> {
    for node in nodes {
        match node {
            Node::Text(t) => out.push_str(t),
            Node::Var(name) => {
                let value = params
                    .get(name)
                    .ok_or_else(|| GalaxyError::Template(format!("undefined variable ${name}")))?;
                out.push_str(value);
            }
            Node::If { cond, then, otherwise } => {
                if eval_cond(cond, params)? {
                    render_nodes(then, params, out)?;
                } else {
                    render_nodes(otherwise, params, out)?;
                }
            }
            Node::For { var, list, body } => {
                let list_value = params
                    .get(list)
                    .ok_or_else(|| GalaxyError::Template(format!("undefined variable ${list}")))?
                    .to_string();
                for item in list_value.split(',').map(str::trim).filter(|s| !s.is_empty()) {
                    let mut scoped = params.clone();
                    scoped.set(var.clone(), item);
                    render_nodes(body, &scoped, out)?;
                }
            }
        }
    }
    Ok(())
}

fn eval_cond(cond: &Cond, params: &ParamDict) -> Result<bool, GalaxyError> {
    match cond {
        Cond::Truthy(var) => {
            let v = params
                .get(var)
                .ok_or_else(|| GalaxyError::Template(format!("undefined variable ${var}")))?;
            Ok(!matches!(v, "" | "false" | "False" | "None"))
        }
        Cond::Not(inner) => Ok(!eval_cond(inner, params)?),
        Cond::Eq(a, b) => Ok(eval_expr(a, params)? == eval_expr(b, params)?),
        Cond::Ne(a, b) => Ok(eval_expr(a, params)? != eval_expr(b, params)?),
    }
}

fn eval_expr<'a>(expr: &'a Expr, params: &'a ParamDict) -> Result<&'a str, GalaxyError> {
    match expr {
        Expr::Var(v) => {
            params.get(v).ok_or_else(|| GalaxyError::Template(format!("undefined variable ${v}")))
        }
        Expr::Lit(l) => Ok(l.as_str()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params(pairs: &[(&str, &str)]) -> ParamDict {
        let mut p = ParamDict::new();
        for (k, v) in pairs {
            p.set(*k, *v);
        }
        p
    }

    #[test]
    fn simple_substitution() {
        let t = Template::parse("racon -t $threads $input > ${output}").unwrap();
        let out = t.render(&params(&[("threads", "4"), ("input", "r.fq"), ("output", "o.fa")]));
        assert_eq!(out.unwrap(), "racon -t 4 r.fq > o.fa");
    }

    #[test]
    fn dollar_escape_and_lone_dollar() {
        let t = Template::parse("cost: $$5 and $ sign").unwrap();
        assert_eq!(t.render(&ParamDict::new()).unwrap(), "cost: $5 and $ sign");
    }

    #[test]
    fn racon_wrapper_if_else() {
        // The shape of the paper's Code 3: pick the executable based on
        // __galaxy_gpu_enabled__.
        let src = "#if $__galaxy_gpu_enabled__ == \"true\"\n\
                   racon_gpu --cudapoa-batches $batches\n\
                   #else\n\
                   racon -t $threads\n\
                   #end if\n";
        let t = Template::parse(src).unwrap();
        let gpu = t
            .render(&params(&[
                ("__galaxy_gpu_enabled__", "true"),
                ("batches", "16"),
                ("threads", "4"),
            ]))
            .unwrap();
        assert_eq!(gpu.trim(), "racon_gpu --cudapoa-batches 16");
        let cpu = t
            .render(&params(&[
                ("__galaxy_gpu_enabled__", "false"),
                ("batches", "16"),
                ("threads", "4"),
            ]))
            .unwrap();
        assert_eq!(cpu.trim(), "racon -t 4");
    }

    #[test]
    fn truthiness_and_not() {
        let t = Template::parse("#if not $flag\noff\n#else\non\n#end if\n").unwrap();
        assert_eq!(t.render(&params(&[("flag", "false")])).unwrap().trim(), "off");
        assert_eq!(t.render(&params(&[("flag", "yes")])).unwrap().trim(), "on");
        assert_eq!(t.render(&params(&[("flag", "")])).unwrap().trim(), "off");
    }

    #[test]
    fn nested_ifs() {
        let src = "#if $a == \"1\"\n#if $b == \"2\"\nboth\n#else\njust-a\n#end if\n#else\nno-a\n#end if\n";
        let t = Template::parse(src).unwrap();
        assert_eq!(t.render(&params(&[("a", "1"), ("b", "2")])).unwrap().trim(), "both");
        assert_eq!(t.render(&params(&[("a", "1"), ("b", "9")])).unwrap().trim(), "just-a");
        assert_eq!(t.render(&params(&[("a", "0"), ("b", "2")])).unwrap().trim(), "no-a");
    }

    #[test]
    fn for_loop_over_csv() {
        let t = Template::parse("#for $gpu in $gpu_ids\n--gpu $gpu \n#end for\n").unwrap();
        let out = t.render(&params(&[("gpu_ids", "0, 1")])).unwrap();
        assert_eq!(out, "--gpu 0 \n--gpu 1 \n");
    }

    #[test]
    fn endif_spelling_variants() {
        for end in ["#end if", "#endif"] {
            let src = format!("#if $x\nyes\n{end}\n");
            let t = Template::parse(&src).unwrap();
            assert_eq!(t.render(&params(&[("x", "1")])).unwrap().trim(), "yes");
        }
    }

    #[test]
    fn comments_swallowed() {
        let t = Template::parse("## this is a comment\nvisible\n").unwrap();
        assert_eq!(t.render(&ParamDict::new()).unwrap(), "visible\n");
    }

    #[test]
    fn undefined_variable_is_error() {
        let t = Template::parse("$missing").unwrap();
        assert!(matches!(t.render(&ParamDict::new()), Err(GalaxyError::Template(_))));
    }

    #[test]
    fn unbalanced_if_is_parse_error() {
        assert!(Template::parse("#if $x\nnope\n").is_err());
        assert!(Template::parse("#else\n").is_err());
        assert!(Template::parse("#end if\n").is_err());
    }

    #[test]
    fn var_eq_var_comparison() {
        let t = Template::parse("#if $a == $b\nsame\n#else\ndiff\n#end if\n").unwrap();
        assert_eq!(t.render(&params(&[("a", "x"), ("b", "x")])).unwrap().trim(), "same");
        assert_eq!(t.render(&params(&[("a", "x"), ("b", "y")])).unwrap().trim(), "diff");
    }

    #[test]
    fn nested_for_loops() {
        let t = Template::parse(
            "#for $node in $nodes
#for $gpu in $gpus
$node:$gpu 
#end for
#end for
",
        )
        .unwrap();
        let out = t.render(&params(&[("nodes", "n1,n2"), ("gpus", "0,1")])).unwrap();
        assert_eq!(
            out,
            "n1:0 
n1:1 
n2:0 
n2:1 
"
        );
    }

    #[test]
    fn for_inside_if() {
        let src =
            "#if $multi == \"yes\"\n#for $g in $gpus\n-d $g \n#end for\n#else\n-d all\n#end if\n";
        let t = Template::parse(src).unwrap();
        let multi = t.render(&params(&[("multi", "yes"), ("gpus", "0,1")])).unwrap();
        assert_eq!(
            multi.trim(),
            "-d 0 
-d 1"
                .trim_end()
        );
        let single = t.render(&params(&[("multi", "no"), ("gpus", "0,1")])).unwrap();
        assert_eq!(single.trim(), "-d all");
    }

    #[test]
    fn empty_list_renders_nothing() {
        let t = Template::parse(
            "#for $x in $items
$x
#end for
",
        )
        .unwrap();
        assert_eq!(t.render(&params(&[("items", "")])).unwrap(), "");
    }

    #[test]
    fn loop_variable_shadows_outer_param() {
        let t = Template::parse(
            "#for $x in $items
$x 
#end for
$x",
        )
        .unwrap();
        let out = t.render(&params(&[("items", "a,b"), ("x", "outer")])).unwrap();
        assert_eq!(
            out,
            "a 
b 
outer"
        );
    }

    #[test]
    fn unknown_directive_rejected() {
        assert!(Template::parse("#while $x\n#end while\n").is_err());
    }
}
