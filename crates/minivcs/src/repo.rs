//! Repository layer: staging, commits, history, status, checkout.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

use codecs::json::{self, Value};

use crate::diff::{diff_lines, render_unified, DiffOp};
use crate::store::{ObjectId, ObjectStore};

/// A recorded commit.
#[derive(Debug, Clone, PartialEq)]
pub struct Commit {
    /// Content address of the serialized commit record (not stored inside
    /// the record itself — it is the record's hash).
    pub id: ObjectIdSerde,
    pub message: String,
    pub author: String,
    /// Parent commit id (None for the root commit).
    pub parent: Option<String>,
    /// Snapshot: path → blob object id.
    pub tree: BTreeMap<String, String>,
    /// Monotonic sequence number within this repository.
    pub seq: u64,
}

/// Wrapper so `Commit.id` serializes cleanly.
pub type ObjectIdSerde = String;

/// Working-tree status of one file.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum FileStatus {
    New,
    Modified,
    Deleted,
    Unchanged,
}

/// Full status report.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Status {
    /// (path, status), sorted by path; `Unchanged` entries are omitted.
    pub entries: Vec<(String, FileStatus)>,
}

/// A repository over a real directory. Metadata lives under `<root>/.minivcs`.
pub struct Repository {
    root: PathBuf,
    store: ObjectStore,
}

#[derive(Default)]
struct Index {
    /// Staged files: path → blob id.
    staged: BTreeMap<String, String>,
    /// Current head commit id.
    head: Option<String>,
    next_seq: u64,
}

fn invalid(message: impl Into<String>) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, message.into())
}

fn parse_json(data: &[u8], what: &str) -> std::io::Result<Value> {
    let text = std::str::from_utf8(data).map_err(|e| invalid(format!("{what}: {e}")))?;
    json::parse(text).map_err(|e| invalid(format!("{what}: {e}")))
}

fn tree_to_json(tree: &BTreeMap<String, String>) -> Value {
    Value::Object(
        tree.iter()
            .map(|(path, blob)| (path.clone(), Value::from(blob.as_str())))
            .collect(),
    )
}

fn tree_from_json(v: &Value) -> std::io::Result<BTreeMap<String, String>> {
    v.as_object()
        .ok_or_else(|| invalid("tree must be an object"))?
        .iter()
        .map(|(path, blob)| {
            blob.as_str()
                .map(|s| (path.clone(), s.to_string()))
                .ok_or_else(|| invalid("tree values must be blob id strings"))
        })
        .collect()
}

impl Index {
    fn to_json(&self) -> Value {
        Value::Object(vec![
            ("staged".to_string(), tree_to_json(&self.staged)),
            ("head".to_string(), Value::from(self.head.as_deref())),
            ("next_seq".to_string(), Value::from(self.next_seq)),
        ])
    }

    fn from_json(v: &Value) -> std::io::Result<Index> {
        Ok(Index {
            staged: tree_from_json(
                v.get("staged")
                    .ok_or_else(|| invalid("index: staged missing"))?,
            )?,
            head: match v.get("head") {
                None | Some(Value::Null) => None,
                Some(h) => Some(
                    h.as_str()
                        .ok_or_else(|| invalid("index: head must be a commit id"))?
                        .to_string(),
                ),
            },
            next_seq: v
                .get("next_seq")
                .and_then(Value::as_u64)
                .ok_or_else(|| invalid("index: next_seq missing"))?,
        })
    }
}

impl Commit {
    fn to_json(&self) -> Value {
        Value::Object(vec![
            ("message".to_string(), Value::from(self.message.as_str())),
            ("author".to_string(), Value::from(self.author.as_str())),
            ("parent".to_string(), Value::from(self.parent.as_deref())),
            ("tree".to_string(), tree_to_json(&self.tree)),
            ("seq".to_string(), Value::from(self.seq)),
        ])
    }

    fn from_json(v: &Value) -> std::io::Result<Commit> {
        let field = |name: &str| {
            v.get(name)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| invalid(format!("commit: field '{name}' missing")))
        };
        Ok(Commit {
            id: String::new(),
            message: field("message")?,
            author: field("author")?,
            parent: match v.get("parent") {
                None | Some(Value::Null) => None,
                Some(p) => Some(
                    p.as_str()
                        .ok_or_else(|| invalid("commit: parent must be a commit id"))?
                        .to_string(),
                ),
            },
            tree: tree_from_json(
                v.get("tree")
                    .ok_or_else(|| invalid("commit: tree missing"))?,
            )?,
            seq: v
                .get("seq")
                .and_then(Value::as_u64)
                .ok_or_else(|| invalid("commit: seq missing"))?,
        })
    }
}

impl Repository {
    fn meta_dir(root: &Path) -> PathBuf {
        root.join(".minivcs")
    }

    /// Initialize (or reopen) a repository at `root`.
    pub fn init(root: &Path) -> std::io::Result<Repository> {
        let meta = Self::meta_dir(root);
        fs::create_dir_all(&meta)?;
        let store = ObjectStore::open(&meta)?;
        let repo = Repository {
            root: root.to_path_buf(),
            store,
        };
        if repo.read_index().is_err() {
            repo.write_index(&Index::default())?;
        }
        Ok(repo)
    }

    fn index_path(&self) -> PathBuf {
        Self::meta_dir(&self.root).join("index.json")
    }

    fn read_index(&self) -> std::io::Result<Index> {
        let data = fs::read(self.index_path())?;
        Index::from_json(&parse_json(&data, "index")?)
    }

    fn write_index(&self, index: &Index) -> std::io::Result<()> {
        fs::write(self.index_path(), index.to_json().to_string_pretty())
    }

    /// Stage a file (path relative to the repository root).
    pub fn add(&self, path: &str) -> std::io::Result<ObjectId> {
        let content = fs::read(self.root.join(path))?;
        let id = self.store.put(&content)?;
        let mut index = self.read_index()?;
        index.staged.insert(path.to_string(), id.0.clone());
        self.write_index(&index)?;
        Ok(id)
    }

    /// Stage every regular file under the root (excluding `.minivcs`).
    pub fn add_all(&self) -> std::io::Result<usize> {
        let files = self.working_files()?;
        let mut count = 0;
        for f in files {
            self.add(&f)?;
            count += 1;
        }
        Ok(count)
    }

    /// Remove a path from the next commit's tree.
    pub fn remove(&self, path: &str) -> std::io::Result<()> {
        let mut index = self.read_index()?;
        index.staged.remove(path);
        self.write_index(&index)?;
        Ok(())
    }

    /// Record a commit from the staged tree. Errors if nothing changed.
    pub fn commit(&self, message: &str, author: &str) -> std::io::Result<ObjectId> {
        let mut index = self.read_index()?;
        let parent_tree = match &index.head {
            Some(h) => self.load_commit(&ObjectId(h.clone()))?.tree,
            None => BTreeMap::new(),
        };
        if index.staged == parent_tree {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "nothing to commit",
            ));
        }
        let commit = Commit {
            id: String::new(),
            message: message.to_string(),
            author: author.to_string(),
            parent: index.head.clone(),
            tree: index.staged.clone(),
            seq: index.next_seq,
        };
        let blob = commit.to_json().to_string_pretty().into_bytes();
        let id = self.store.put(&blob)?;
        index.head = Some(id.0.clone());
        index.next_seq += 1;
        self.write_index(&index)?;
        Ok(id)
    }

    fn load_commit(&self, id: &ObjectId) -> std::io::Result<Commit> {
        let blob = self.store.get(id)?;
        let mut commit = Commit::from_json(&parse_json(&blob, "commit")?)?;
        commit.id = id.0.clone();
        Ok(commit)
    }

    /// Head commit id, if any.
    pub fn head(&self) -> std::io::Result<Option<ObjectId>> {
        Ok(self.read_index()?.head.map(ObjectId))
    }

    /// Commit history, newest first.
    pub fn log(&self) -> std::io::Result<Vec<Commit>> {
        let mut out = Vec::new();
        let mut cursor = self.read_index()?.head;
        while let Some(id) = cursor {
            let commit = self.load_commit(&ObjectId(id))?;
            cursor = commit.parent.clone();
            out.push(commit);
        }
        Ok(out)
    }

    /// Fetch a file's content at a given commit.
    pub fn file_at(&self, commit: &ObjectId, path: &str) -> std::io::Result<Option<Vec<u8>>> {
        let c = self.load_commit(commit)?;
        match c.tree.get(path) {
            None => Ok(None),
            Some(blob) => Ok(Some(self.store.get(&ObjectId(blob.clone()))?)),
        }
    }

    /// All regular files under the root, relative paths, sorted;
    /// `.minivcs` and hidden directories are skipped.
    pub fn working_files(&self) -> std::io::Result<Vec<String>> {
        let mut out = Vec::new();
        let mut stack = vec![self.root.clone()];
        while let Some(dir) = stack.pop() {
            for entry in fs::read_dir(&dir)? {
                let entry = entry?;
                let name = entry.file_name().to_string_lossy().to_string();
                if name.starts_with('.') {
                    continue;
                }
                let path = entry.path();
                if path.is_dir() {
                    stack.push(path);
                } else {
                    let rel = path
                        .strip_prefix(&self.root)
                        .expect("children are under root")
                        .to_string_lossy()
                        .replace('\\', "/");
                    out.push(rel);
                }
            }
        }
        out.sort();
        Ok(out)
    }

    /// Compare the working tree against HEAD.
    pub fn status(&self) -> std::io::Result<Status> {
        let head_tree = match self.head()? {
            Some(h) => self.load_commit(&h)?.tree,
            None => BTreeMap::new(),
        };
        let mut entries = Vec::new();
        let working = self.working_files()?;
        for path in &working {
            let content = fs::read(self.root.join(path))?;
            let id = ObjectId::of(&content).0;
            match head_tree.get(path) {
                None => entries.push((path.clone(), FileStatus::New)),
                Some(existing) if *existing != id => {
                    entries.push((path.clone(), FileStatus::Modified))
                }
                Some(_) => {}
            }
        }
        for path in head_tree.keys() {
            if !working.contains(path) {
                entries.push((path.clone(), FileStatus::Deleted));
            }
        }
        entries.sort();
        Ok(Status { entries })
    }

    /// Unified diff of one file between two commits (or the working tree
    /// when `to` is None).
    pub fn diff_file(
        &self,
        path: &str,
        from: &ObjectId,
        to: Option<&ObjectId>,
    ) -> std::io::Result<String> {
        let old = self
            .file_at(from, path)?
            .map(|b| String::from_utf8_lossy(&b).to_string())
            .unwrap_or_default();
        let new = match to {
            Some(id) => self
                .file_at(id, path)?
                .map(|b| String::from_utf8_lossy(&b).to_string())
                .unwrap_or_default(),
            None => fs::read(self.root.join(path))
                .map(|b| String::from_utf8_lossy(&b).to_string())
                .unwrap_or_default(),
        };
        let ops: Vec<DiffOp> = diff_lines(&old, &new);
        Ok(render_unified(&ops))
    }

    /// Restore the working tree to a commit's snapshot (files in the commit
    /// are overwritten; files not in the commit are left alone).
    pub fn checkout(&self, commit: &ObjectId) -> std::io::Result<usize> {
        let c = self.load_commit(commit)?;
        let mut restored = 0;
        for (path, blob) in &c.tree {
            let content = self.store.get(&ObjectId(blob.clone()))?;
            let target = self.root.join(path);
            if let Some(parent) = target.parent() {
                fs::create_dir_all(parent)?;
            }
            fs::write(target, content)?;
            restored += 1;
        }
        Ok(restored)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_repo(tag: &str) -> (PathBuf, Repository) {
        let dir = std::env::temp_dir().join(format!(
            "minivcs-repo-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        fs::remove_dir_all(&dir).ok();
        fs::create_dir_all(&dir).unwrap();
        let repo = Repository::init(&dir).unwrap();
        (dir, repo)
    }

    #[test]
    fn add_commit_log() {
        let (dir, repo) = temp_repo("basic");
        fs::write(dir.join("udf.py"), "return 1\n").unwrap();
        repo.add("udf.py").unwrap();
        let c1 = repo.commit("import udf", "dev").unwrap();
        fs::write(dir.join("udf.py"), "return 2\n").unwrap();
        repo.add("udf.py").unwrap();
        let c2 = repo.commit("fix constant", "dev").unwrap();
        let log = repo.log().unwrap();
        assert_eq!(log.len(), 2);
        assert_eq!(log[0].id, c2.0);
        assert_eq!(log[1].id, c1.0);
        assert_eq!(log[0].parent.as_deref(), Some(c1.0.as_str()));
        assert_eq!(log[0].message, "fix constant");
        fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn empty_commit_rejected() {
        let (dir, repo) = temp_repo("empty");
        fs::write(dir.join("a.py"), "x\n").unwrap();
        repo.add("a.py").unwrap();
        repo.commit("first", "dev").unwrap();
        assert!(repo.commit("again with no changes", "dev").is_err());
        fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn status_reports_new_modified_deleted() {
        let (dir, repo) = temp_repo("status");
        fs::write(dir.join("keep.py"), "k\n").unwrap();
        fs::write(dir.join("gone.py"), "g\n").unwrap();
        repo.add_all().unwrap();
        repo.commit("base", "dev").unwrap();
        assert!(repo.status().unwrap().entries.is_empty());

        fs::write(dir.join("keep.py"), "changed\n").unwrap();
        fs::write(dir.join("fresh.py"), "f\n").unwrap();
        fs::remove_file(dir.join("gone.py")).unwrap();
        let status = repo.status().unwrap();
        assert_eq!(
            status.entries,
            vec![
                ("fresh.py".to_string(), FileStatus::New),
                ("gone.py".to_string(), FileStatus::Deleted),
                ("keep.py".to_string(), FileStatus::Modified),
            ]
        );
        fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn diff_between_commits_shows_scenario_a_fix() {
        let (dir, repo) = temp_repo("diff");
        fs::write(
            dir.join("mean_deviation.py"),
            "distance += column[i] - mean\n",
        )
        .unwrap();
        repo.add_all().unwrap();
        let c1 = repo.commit("buggy import", "dev").unwrap();
        fs::write(
            dir.join("mean_deviation.py"),
            "distance += abs(column[i] - mean)\n",
        )
        .unwrap();
        repo.add_all().unwrap();
        let c2 = repo.commit("add abs()", "dev").unwrap();
        let diff = repo.diff_file("mean_deviation.py", &c1, Some(&c2)).unwrap();
        assert!(diff.contains("-distance += column[i] - mean"));
        assert!(diff.contains("+distance += abs(column[i] - mean)"));
        fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn checkout_restores_old_version() {
        let (dir, repo) = temp_repo("checkout");
        fs::write(dir.join("f.py"), "v1\n").unwrap();
        repo.add_all().unwrap();
        let c1 = repo.commit("v1", "dev").unwrap();
        fs::write(dir.join("f.py"), "v2\n").unwrap();
        repo.add_all().unwrap();
        repo.commit("v2", "dev").unwrap();
        repo.checkout(&c1).unwrap();
        assert_eq!(fs::read_to_string(dir.join("f.py")).unwrap(), "v1\n");
        fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn nested_directories_tracked() {
        let (dir, repo) = temp_repo("nested");
        fs::create_dir_all(dir.join("udfs/ml")).unwrap();
        fs::write(dir.join("udfs/ml/train.py"), "t\n").unwrap();
        repo.add_all().unwrap();
        let c = repo.commit("nested", "dev").unwrap();
        assert_eq!(
            repo.file_at(&c, "udfs/ml/train.py").unwrap().unwrap(),
            b"t\n"
        );
        fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn reopen_preserves_history() {
        let (dir, repo) = temp_repo("reopen");
        fs::write(dir.join("a.py"), "1\n").unwrap();
        repo.add_all().unwrap();
        repo.commit("one", "dev").unwrap();
        drop(repo);
        let repo2 = Repository::init(&dir).unwrap();
        assert_eq!(repo2.log().unwrap().len(), 1);
        fs::remove_dir_all(dir).ok();
    }
}
