//! The paper's four multi-GPU case studies (§VI-C) asserted end-to-end
//! through the Galaxy + GYAN stack with lingering concurrent jobs.

mod common;

use common::{mask, testbed};
use galaxy::params::ParamDict;
use gpusim::smi;
use gyan::allocation::AllocationPolicy;
use gyan::gpu_usage::get_gpu_usage;

#[test]
fn case1_two_tools_land_on_their_requested_gpus() {
    let (cluster, mut app, _exec) = testbed(AllocationPolicy::ProcessId);
    let racon = app.submit("racon_dev0", &ParamDict::new()).unwrap();
    let bonito = app.submit("bonito_dev1", &ParamDict::new()).unwrap();
    assert_eq!(mask(&app, racon), "0");
    assert_eq!(mask(&app, bonito), "1");

    // nvidia-smi shows each process on its own device (paper Fig. 10).
    let usage = get_gpu_usage(&cluster);
    assert_eq!(usage.proc_gpu_dict[0].1.len(), 1);
    assert_eq!(usage.proc_gpu_dict[1].1.len(), 1);
    let racon_pid = app.job(racon).unwrap().pid.unwrap();
    let bonito_pid = app.job(bonito).unwrap().pid.unwrap();
    assert_eq!(usage.proc_gpu_dict[0].1, vec![racon_pid]);
    assert_eq!(usage.proc_gpu_dict[1].1, vec![bonito_pid]);

    // The busy Bonito device shows the paper's memory footprint.
    let table = smi::render_table(&cluster);
    assert!(table.contains("2734MiB /"), "fig-10 footprint missing:\n{table}");
}

#[test]
fn case2_second_instance_redirected_off_busy_gpu() {
    let (_cluster, mut app, _exec) = testbed(AllocationPolicy::ProcessId);
    let first = app.submit("bonito_dev1", &ParamDict::new()).unwrap();
    let second = app.submit("bonito_dev1", &ParamDict::new()).unwrap();
    assert_eq!(mask(&app, first), "1", "requested device granted while free");
    assert_eq!(mask(&app, second), "0", "busy device: redirected to the free one");
}

#[test]
fn case3_pid_allocation_scatters_when_all_busy() {
    let (cluster, mut app, _exec) = testbed(AllocationPolicy::ProcessId);
    let masks: Vec<String> = (0..4)
        .map(|_| {
            let id = app.submit("racon_dev0", &ParamDict::new()).unwrap();
            mask(&app, id).to_string()
        })
        .collect();
    assert_eq!(masks, vec!["0", "1", "0,1", "0,1"], "paper Fig. 9 Case 3 placement");

    // Fig. 11: instances 3 and 4 appear on BOTH devices.
    let usage = get_gpu_usage(&cluster);
    assert_eq!(usage.proc_gpu_dict[0].1.len(), 3);
    assert_eq!(usage.proc_gpu_dict[1].1.len(), 3);
    let on_both: Vec<u32> = usage.proc_gpu_dict[0]
        .1
        .iter()
        .filter(|pid| usage.proc_gpu_dict[1].1.contains(pid))
        .copied()
        .collect();
    assert_eq!(on_both.len(), 2);

    // ... and its process table lists three 60 MiB `racon_gpu` rows per
    // device (63 MiB driver + 3 × 60 MiB = 243 MiB in use on each).
    let table = smi::render_table(&cluster);
    for gpu in ["0", "1"] {
        let rows = table
            .lines()
            .filter(|line| line.contains("/usr/bin/racon_gpu") && line.ends_with("60MiB |"))
            .filter(|line| line.split_whitespace().nth(1) == Some(gpu))
            .count();
        assert_eq!(rows, 3, "fig-11 process rows of GPU {gpu}:\n{table}");
    }
    assert_eq!(table.matches("243MiB /").count(), 2, "fig-11 memory in use:\n{table}");
}

#[test]
fn case4_memory_allocation_picks_least_loaded_gpu() {
    let (_cluster, mut app, _exec) = testbed(AllocationPolicy::MemoryBased);
    let racon = app.submit("racon_dev0", &ParamDict::new()).unwrap();
    let b1 = app.submit("bonito_dev1", &ParamDict::new()).unwrap();
    let b2 = app.submit("bonito_dev1", &ParamDict::new()).unwrap();
    assert_eq!(mask(&app, racon), "0");
    assert_eq!(mask(&app, b1), "1");
    // GPU 0 holds only racon's 60 MiB vs bonito's 2.7 GB on GPU 1: the
    // second bonito goes to GPU 0, and to GPU 0 alone (no scattering).
    assert_eq!(mask(&app, b2), "0");
}

#[test]
fn releasing_lingering_jobs_frees_devices() {
    let (cluster, mut app, exec) = testbed(AllocationPolicy::ProcessId);
    let a = app.submit("racon_dev0", &ParamDict::new()).unwrap();
    let _b = app.submit("racon_dev0", &ParamDict::new()).unwrap();
    assert!(cluster.available_devices().is_empty());
    exec.release(app.job(a).unwrap().pid.unwrap());
    assert_eq!(cluster.available_devices(), vec![0]);
    exec.release_all();
    assert_eq!(cluster.available_devices(), vec![0, 1]);
}
