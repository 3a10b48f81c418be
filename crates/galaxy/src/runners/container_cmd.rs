//! Docker and Singularity launch command assembly.
//!
//! Reproduces the shape of Galaxy's container launch scripts: the runner
//! "executes the container by assembling a bash command" (paper §IV-B).
//! GYAN's GPU flags are *not* added here — they are injected by
//! [`crate::runners::CommandMutator`]s registered on the app, exactly as
//! GYAN patches the launch script rather than each tool.

use obs::Text;

/// A volume mount request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VolumeBind {
    /// Host path.
    pub host: String,
    /// Container path.
    pub container: String,
    /// `rw` or `ro`.
    pub mode: BindMode,
}

/// Read-write or read-only bind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BindMode {
    /// Read-write.
    Rw,
    /// Read-only.
    Ro,
}

impl BindMode {
    /// Flag suffix as used in `-v host:ctr:rw`.
    pub fn suffix(self) -> &'static str {
        match self {
            BindMode::Rw => "rw",
            BindMode::Ro => "ro",
        }
    }
}

impl VolumeBind {
    /// A read-write bind of the same path inside and out.
    pub fn rw(path: impl Into<String>) -> Self {
        let path = path.into();
        VolumeBind { host: path.clone(), container: path, mode: BindMode::Rw }
    }

    /// A read-only bind of the same path inside and out.
    pub fn ro(path: impl Into<String>) -> Self {
        let path = path.into();
        VolumeBind { host: path.clone(), container: path, mode: BindMode::Ro }
    }
}

/// Assemble a `docker run` command for `image` executing `tool_command`.
///
/// Shape: `docker run --rm -e K=V ... -v h:c:mode ... -w workdir image
/// /bin/bash -c '<tool_command>'`.
pub fn docker_command(
    image: &str,
    tool_command: &str,
    env: &[(Text, Text)],
    volumes: &[VolumeBind],
    workdir: &str,
) -> Vec<String> {
    let mut parts: Vec<String> = vec!["docker".into(), "run".into(), "--rm".into()];
    for (k, v) in env {
        parts.push("-e".into());
        parts.push(format!("{k}={v}"));
    }
    for vol in volumes {
        parts.push("-v".into());
        parts.push(format!("{}:{}:{}", vol.host, vol.container, vol.mode.suffix()));
    }
    parts.push("-w".into());
    parts.push(workdir.to_string());
    parts.push(image.to_string());
    parts.push("/bin/bash".into());
    parts.push("-c".into());
    parts.push(tool_command.to_string());
    parts
}

/// Assemble a `singularity exec` command.
///
/// Shape: `singularity exec --cleanenv -B h:c:mode ... --pwd workdir image
/// /bin/bash -c '<tool_command>'`. Environment is passed via
/// `SINGULARITYENV_`-prefixed assignments preceding the binary, matching
/// Galaxy's behaviour.
pub fn singularity_command(
    image: &str,
    tool_command: &str,
    env: &[(Text, Text)],
    volumes: &[VolumeBind],
    workdir: &str,
) -> Vec<String> {
    let mut parts: Vec<String> = Vec::new();
    for (k, v) in env {
        parts.push(format!("SINGULARITYENV_{k}={v}"));
    }
    parts.push("singularity".into());
    parts.push("exec".into());
    parts.push("--cleanenv".into());
    for vol in volumes {
        parts.push("-B".into());
        parts.push(format!("{}:{}:{}", vol.host, vol.container, vol.mode.suffix()));
    }
    parts.push("--pwd".into());
    parts.push(workdir.to_string());
    parts.push(image.to_string());
    parts.push("/bin/bash".into());
    parts.push("-c".into());
    parts.push(tool_command.to_string());
    parts
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env() -> Vec<(Text, Text)> {
        vec![("GALAXY_GPU_ENABLED".into(), "true".into())]
    }

    #[test]
    fn docker_command_shape() {
        let parts = docker_command(
            "gulsumgudukbay/racon_dockerfile",
            "racon_gpu -t 4 reads.fq ovl.paf draft.fa",
            &env(),
            &[VolumeBind::rw("/galaxy/data"), VolumeBind::ro("/galaxy/refs")],
            "/galaxy/job",
        );
        assert_eq!(parts[..3], ["docker", "run", "--rm"]);
        assert!(parts.contains(&"GALAXY_GPU_ENABLED=true".to_string()));
        assert!(parts.contains(&"/galaxy/data:/galaxy/data:rw".to_string()));
        assert!(parts.contains(&"/galaxy/refs:/galaxy/refs:ro".to_string()));
        let img_pos = parts.iter().position(|p| p == "gulsumgudukbay/racon_dockerfile").unwrap();
        assert_eq!(parts[img_pos + 1], "/bin/bash");
        assert_eq!(parts[img_pos + 2], "-c");
        assert!(parts[img_pos + 3].starts_with("racon_gpu"));
    }

    #[test]
    fn singularity_command_shape() {
        let parts = singularity_command(
            "racon.sif",
            "racon_gpu draft.fa",
            &env(),
            &[VolumeBind::rw("/data")],
            "/job",
        );
        assert_eq!(parts[0], "SINGULARITYENV_GALAXY_GPU_ENABLED=true");
        let exec_pos = parts.iter().position(|p| p == "exec").unwrap();
        assert_eq!(parts[exec_pos - 1], "singularity");
        // The rw flag is present by default — GYAN's singularity mutator
        // strips it (Singularity ≥3.1 + --nv incompatibility).
        assert!(parts.contains(&"/data:/data:rw".to_string()));
    }

    #[test]
    fn empty_env_and_volumes() {
        let parts = docker_command("img", "true", &[], &[], "/");
        assert!(!parts.iter().any(|p| p == "-e"));
        assert!(!parts.iter().any(|p| p == "-v"));
    }

    #[test]
    fn bind_mode_suffixes() {
        assert_eq!(BindMode::Rw.suffix(), "rw");
        assert_eq!(BindMode::Ro.suffix(), "ro");
    }
}
