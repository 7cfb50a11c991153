//! Path normalization for the VFS.

/// Normalizes a path: collapses `//`, resolves `.` and `..`, guarantees a
/// leading `/`.
///
/// ```
/// use flexos_fs::path::normalize;
///
/// assert_eq!(normalize("/a//b/./c/../d"), "/a/b/d");
/// assert_eq!(normalize("relative/x"), "/relative/x");
/// assert_eq!(normalize("/.."), "/");
/// ```
pub fn normalize(path: &str) -> String {
    let mut parts: Vec<&str> = Vec::new();
    for part in path.split('/') {
        match part {
            "" | "." => {}
            ".." => {
                parts.pop();
            }
            p => parts.push(p),
        }
    }
    let mut out = String::from("/");
    out.push_str(&parts.join("/"));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalizes_edge_cases() {
        assert_eq!(normalize("/"), "/");
        assert_eq!(normalize(""), "/");
        assert_eq!(normalize("///x///"), "/x");
        assert_eq!(normalize("/a/b/../../c"), "/c");
        assert_eq!(normalize("/a/./././b"), "/a/b");
    }

    #[test]
    fn parent_of_root_is_root() {
        assert_eq!(normalize("/../../.."), "/");
    }
}
