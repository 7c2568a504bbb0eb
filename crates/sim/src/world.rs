//! The closed-loop world: physics, sensors, controller, and the localizer
//! under test, scheduled at their real rates.

use crate::controller::{PurePursuit, PurePursuitConfig, SpeedProfile};
use crate::sensors::{Lidar, LidarSpec, WheelOdometer, WheelOdometerConfig};
use crate::vehicle::{DriveCommand, Vehicle, VehicleParams, VehicleState};
use raceloc_core::localizer::Localizer;
use raceloc_core::sensor_data::LaserScan;
use raceloc_core::{Health, Pose2};
use raceloc_faults::{FaultSchedule, FaultTracker};
use raceloc_map::{CellState, Track};
use raceloc_obs::Stopwatch;
use raceloc_obs::{Json, RunRecorder, StepRecord, Telemetry};
use raceloc_range::{PooledCaster, RayMarching};
use std::collections::VecDeque;
use std::io;

/// Configuration of a closed-loop run.
#[derive(Debug, Clone, PartialEq)]
pub struct WorldConfig {
    /// Physics integration step \[s\].
    pub physics_dt: f64,
    /// Wheel-odometry rate \[Hz\].
    pub odom_hz: f64,
    /// LiDAR sweep rate \[Hz\].
    pub lidar_hz: f64,
    /// Controller rate \[Hz\].
    pub control_hz: f64,
    /// LiDAR geometry and noise.
    pub lidar: LidarSpec,
    /// Odometer noise.
    pub odom: WheelOdometerConfig,
    /// Vehicle parameters (grip lives here: `vehicle.mu`).
    pub vehicle: VehicleParams,
    /// Lateral acceleration budget for the speed profile \[m/s²\].
    pub a_lat_max: f64,
    /// Acceleration limit for the speed profile \[m/s²\].
    pub a_accel: f64,
    /// Braking limit for the speed profile \[m/s²\].
    pub a_brake: f64,
    /// Top speed for the speed profile \[m/s\].
    pub v_max: f64,
    /// Pure-pursuit tuning (speed scaling lives here).
    pub pursuit: PurePursuitConfig,
    /// Master noise seed.
    pub seed: u64,
    /// Keep every k-th scan in the log (for scan-alignment scoring).
    pub scan_log_stride: usize,
    /// Relative grip variation σ: the effective friction follows an
    /// Ornstein–Uhlenbeck process `μ_eff = μ·(1 + g)` with stationary
    /// standard deviation `grip_noise` and ~0.5 s correlation time —
    /// the "varying grip levels" of a real track (dust, tire temperature).
    pub grip_noise: f64,
    /// Worker threads for the simulator's own ray casting (the LiDAR
    /// sweep). `1` (the default) keeps everything on the caller thread;
    /// higher values batch the sweep onto a persistent
    /// [`raceloc_range::PooledCaster`] pool. Scans are bit-identical for
    /// every value (rule R3) — see DESIGN.md §11.
    pub threads: usize,
}

impl Default for WorldConfig {
    fn default() -> Self {
        Self {
            physics_dt: 0.002,
            odom_hz: 50.0,
            lidar_hz: 40.0,
            control_hz: 50.0,
            lidar: LidarSpec::default(),
            odom: WheelOdometerConfig::default(),
            vehicle: VehicleParams::f1tenth(),
            a_lat_max: 5.8,
            a_accel: 4.4,
            a_brake: 4.2,
            v_max: 7.6,
            pursuit: PurePursuitConfig::default(),
            seed: 42,
            scan_log_stride: 4,
            grip_noise: 0.05,
            threads: 1,
        }
    }
}

/// One logged LiDAR-rate sample of the closed loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogSample {
    /// Simulation time \[s\].
    pub stamp: f64,
    /// Ground-truth vehicle pose.
    pub true_pose: Pose2,
    /// Localizer estimate after the scan correction.
    pub est_pose: Pose2,
    /// Wall-clock seconds the localizer's `correct` call took.
    pub correct_seconds: f64,
    /// Ground-truth chassis speed \[m/s\].
    pub true_speed: f64,
    /// Encoder wheel speed \[m/s\] (differs from `true_speed` under slip).
    pub wheel_speed: f64,
    /// The localizer's self-reported health after this correction
    /// ([`Health::Nominal`] for localizers without health monitoring).
    pub health: Health,
}

/// The record of a closed-loop run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimLog {
    /// One entry per LiDAR correction.
    pub samples: Vec<LogSample>,
    /// Subsampled scans with their estimates (for scan-alignment scoring):
    /// `(stamp, estimated body pose, scan)`.
    pub scans: Vec<(f64, Pose2, LaserScan)>,
    /// Wall-clock seconds spent in `predict` calls, total.
    pub predict_seconds_total: f64,
    /// Number of `predict` calls.
    pub predict_calls: usize,
    /// True when the car left free space and the run was aborted.
    pub crashed: bool,
    /// Simulated duration actually run \[s\].
    pub duration: f64,
}

impl SimLog {
    /// Mean wall-clock seconds per scan correction.
    pub fn mean_correct_seconds(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().map(|s| s.correct_seconds).sum::<f64>() / self.samples.len() as f64
    }

    /// Logs `scan` with the estimate of the latest sample.
    fn keep_scan(&mut self, stamp: f64, scan: LaserScan) {
        let est = self.samples.last().map_or(Pose2::IDENTITY, |s| s.est_pose);
        self.scans.push((stamp, est, scan));
    }
}

/// The runtime state of an installed [`FaultSchedule`]: the schedule
/// itself plus everything the closed loop needs to execute it — the
/// telemetry tracker, a pre-built caster over the corrupted map, the
/// latency queue, and the stuck-encoder capture. All of it is keyed on the
/// LiDAR correction-step counter, which resets at the start of every run,
/// so runs replay bit-identically (rule R3).
struct FaultBox {
    schedule: FaultSchedule,
    tracker: FaultTracker,
    /// Caster over the map with every corruption region burned in as
    /// occupied (`None` when the schedule declares no map corruption).
    /// Built once at install time; swapped in per-step while a
    /// map-corruption window is active.
    corrupt_caster: Option<PooledCaster<RayMarching>>,
    /// Scans awaiting emission while a latency fault is active.
    delay_queue: VecDeque<LaserScan>,
    /// `(wheel_speed, steer)` frozen at the first step of a stuck-encoder
    /// window.
    stuck_capture: Option<(f64, f64)>,
    /// LiDAR correction-step counter — the schedule's clock.
    scan_step: u64,
}

impl FaultBox {
    fn new(schedule: FaultSchedule, track: &Track, config: &WorldConfig) -> Self {
        let regions = schedule.corruption_regions();
        let corrupt_caster = (!regions.is_empty()).then(|| {
            let mut grid = track.grid.clone();
            for region in &regions {
                let a = grid.world_to_index(raceloc_core::Point2::new(region.x0, region.y0));
                let b = grid.world_to_index(raceloc_core::Point2::new(region.x1, region.y1));
                for row in a.row.min(b.row)..=a.row.max(b.row) {
                    for col in a.col.min(b.col)..=a.col.max(b.col) {
                        grid.set((col, row).into(), CellState::Occupied);
                    }
                }
            }
            PooledCaster::new(
                RayMarching::new(&grid, config.lidar.max_range),
                config.threads.max(1),
            )
        });
        let tracker = FaultTracker::new(&schedule);
        Self {
            schedule,
            tracker,
            corrupt_caster,
            delay_queue: VecDeque::new(),
            stuck_capture: None,
            scan_step: 0,
        }
    }

    /// Forgets all per-run state (call at the start of a run).
    fn reset(&mut self) {
        self.tracker.reset();
        self.delay_queue.clear();
        self.stuck_capture = None;
        self.scan_step = 0;
    }
}

/// The closed-loop simulation world.
///
/// Owns the ground truth (track + vehicle state), the sensor simulators, and
/// the racing controller; [`World::run`] drives a [`Localizer`] exactly the
/// way the on-car software stack would.
pub struct World {
    track: Track,
    config: WorldConfig,
    vehicle: Vehicle,
    state: VehicleState,
    caster: PooledCaster<RayMarching>,
    lidar: Lidar,
    odometer: WheelOdometer,
    pursuit: PurePursuit,
    time: f64,
    grip_rng: raceloc_core::Rng64,
    /// Current grip deviation `g` of the OU process.
    grip_dev: f64,
    tel: Telemetry,
    /// Installed fault schedule and its runtime state (`None` keeps every
    /// fault branch of the closed loop unreachable — the zero-cost path).
    faults: Option<FaultBox>,
}

impl std::fmt::Debug for World {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("World")
            .field("time", &self.time)
            .field("state", &self.state)
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

impl World {
    /// Builds a world on a track; the car starts at rest on the raceline.
    ///
    /// # Panics
    ///
    /// Panics when the configuration rates are not positive.
    pub fn new(track: Track, config: WorldConfig) -> Self {
        assert!(
            config.physics_dt > 0.0
                && config.odom_hz > 0.0
                && config.lidar_hz > 0.0
                && config.control_hz > 0.0,
            "world rates must be positive"
        );
        let caster = PooledCaster::new(
            RayMarching::new(&track.grid, config.lidar.max_range),
            config.threads.max(1),
        );
        let profile = SpeedProfile::new(
            &track.raceline,
            config.a_lat_max,
            config.a_accel,
            config.a_brake,
            config.v_max,
        );
        let pursuit = PurePursuit::new(
            track.raceline.clone(),
            profile,
            config.pursuit,
            &config.vehicle,
        );
        let lidar = Lidar::new(config.lidar, config.seed.wrapping_add(1));
        let odometer = WheelOdometer::new(config.vehicle, config.odom, config.seed.wrapping_add(2));
        let state = VehicleState::at_pose(track.start_pose());
        let vehicle = Vehicle::new(config.vehicle);
        let grip_rng = raceloc_core::Rng64::new(config.seed.wrapping_add(3));
        Self {
            track,
            config,
            vehicle,
            state,
            caster,
            lidar,
            odometer,
            pursuit,
            time: 0.0,
            grip_rng,
            grip_dev: 0.0,
            tel: Telemetry::disabled(),
            faults: None,
        }
    }

    /// Installs a deterministic fault schedule; subsequent runs execute it.
    ///
    /// Faults are applied between the ground-truth step and sensor
    /// emission: odometry faults perturb what the encoders *report* (the
    /// chassis is untouched), scan faults mutate the emitted ranges, a
    /// kidnap teleports the ground-truth pose along the raceline, and map
    /// corruption casts the scan against a map with the scheduled regions
    /// burned in as occupied. Every stochastic choice is a pure function of
    /// `(schedule seed, correction step)`, so runs stay bit-identical
    /// across thread counts (rule R3). Fault activity is booked into the
    /// world's telemetry as `faults.<kind>.activations` / `.steps`.
    pub fn set_fault_schedule(&mut self, schedule: FaultSchedule) {
        self.faults = Some(FaultBox::new(schedule, &self.track, &self.config));
    }

    /// Removes any installed fault schedule.
    pub fn clear_fault_schedule(&mut self) {
        self.faults = None;
    }

    /// The installed fault schedule, if any.
    pub fn fault_schedule(&self) -> Option<&FaultSchedule> {
        self.faults.as_ref().map(|fb| &fb.schedule)
    }

    /// Installs a telemetry handle; the closed loop records `sim.predict`,
    /// `sim.correct`, and `sim.physics` spans into it. Pass a clone of the
    /// handle the localizer uses so one snapshot covers the whole stack.
    pub fn set_telemetry(&mut self, tel: Telemetry) {
        self.tel = tel;
    }

    /// The world's telemetry handle (disabled unless [`World::set_telemetry`]
    /// installed an enabled one).
    pub fn telemetry(&self) -> &Telemetry {
        &self.tel
    }

    /// The track the world was built on.
    pub fn track(&self) -> &Track {
        &self.track
    }

    /// The ground-truth vehicle state.
    pub fn state(&self) -> &VehicleState {
        &self.state
    }

    /// Current simulation time \[s\].
    pub fn time(&self) -> f64 {
        self.time
    }

    /// The configuration.
    pub fn config(&self) -> &WorldConfig {
        &self.config
    }

    /// The ray caster over the ground-truth map (sharable with localizers
    /// that want the identical geometry, e.g. in tests).
    pub fn caster(&self) -> &RayMarching {
        self.caster.inner()
    }

    /// Counters of the simulator's own casting pool, if one has been
    /// spawned (`None` with `threads <= 1`, which never leaves the caller
    /// thread).
    pub fn pool_stats(&self) -> Option<raceloc_par::PoolStats> {
        self.caster.pool_stats()
    }

    /// Produces one LiDAR scan from the current true pose (useful for
    /// initializing localizers or writing custom loops).
    pub fn scan_now(&mut self) -> LaserScan {
        self.lidar.scan_with_threads(
            self.state.pose,
            &self.caster,
            self.config.threads,
            self.time,
        )
    }

    /// Runs the closed loop for `duration` simulated seconds.
    ///
    /// The localizer is reset to the true pose at the start, then driven by
    /// odometry (`predict`) and LiDAR (`correct`); the pure-pursuit
    /// controller consumes the *localizer's* pose. The run aborts early if
    /// the ground-truth pose leaves free space ("crash").
    pub fn run<L: Localizer + ?Sized>(&mut self, localizer: &mut L, duration: f64) -> SimLog {
        // Without a recorder there is no I/O, so the error slot is always
        // `None` and can be dropped without losing information.
        only_log(self.run_inner(&mut [localizer], duration, false, None).0)
    }

    /// Runs the closed loop with the controller fed the *ground-truth* pose
    /// (a perfect oracle localizer).
    ///
    /// This is the perfect-localization upper bound: it isolates what the
    /// vehicle + controller can physically do on the configured grip, which
    /// lets experiments distinguish localization failures from an
    /// undrivable speed profile. The supplied localizer still receives all
    /// sensor data and its estimates are logged — only the control input
    /// differs. The one-localizer case of
    /// [`World::run_with_oracle_control_all`].
    pub fn run_with_oracle_control<L: Localizer + ?Sized>(
        &mut self,
        localizer: &mut L,
        duration: f64,
    ) -> SimLog {
        only_log(self.run_inner(&mut [localizer], duration, true, None).0)
    }

    /// Runs every localizer of `localizers` on **one** simulated trajectory
    /// under oracle control, in lockstep, and returns one log per
    /// localizer (in slice order).
    ///
    /// Oracle control never reads a localizer, so the world — physics,
    /// sensor noise, faults — evolves exactly as it would with any single
    /// one of them, and each localizer receives exactly the call sequence
    /// a solo [`World::run_with_oracle_control`] gives it: `reset`, every
    /// `predict`, and per scan `set_compute_pressure` (under a fault
    /// schedule) then `correct`. Each log is therefore bit-identical to
    /// that localizer's solo log, wall-clock fields aside. Truth, stamps,
    /// scans and the crash flag are shared; estimates, health and timings
    /// are per localizer.
    pub fn run_with_oracle_control_all(
        &mut self,
        localizers: &mut [&mut dyn Localizer],
        duration: f64,
    ) -> Vec<SimLog> {
        self.run_inner(localizers, duration, true, None).0
    }

    /// Runs the closed loop like [`World::run`] while streaming one JSONL
    /// `step` record per LiDAR correction into `recorder`.
    ///
    /// Each record carries the ground truth, the estimate, the correction
    /// wall-clock time, and whatever [`Localizer::diagnostics`] reports —
    /// the same schema for every localizer, with no downcasting. A `meta`
    /// line naming the localizer and the loop rates is written first.
    ///
    /// # Errors
    ///
    /// Returns the first I/O error the recorder's writer reports.
    pub fn run_recorded<L: Localizer + ?Sized>(
        &mut self,
        localizer: &mut L,
        duration: f64,
        recorder: &mut RunRecorder,
    ) -> io::Result<SimLog> {
        recorder.record_meta(&[
            ("localizer", Json::Str(localizer.name().to_string())),
            ("duration_s", Json::num(duration)),
            ("odom_hz", Json::num(self.config.odom_hz)),
            ("lidar_hz", Json::num(self.config.lidar_hz)),
            ("seed", Json::num(self.config.seed as f64)),
        ])?;
        let (logs, io_err) = self.run_inner(&mut [localizer], duration, false, Some(recorder));
        if let Some(e) = io_err {
            return Err(e);
        }
        recorder.flush()?;
        Ok(only_log(logs))
    }

    /// The shared closed-loop body behind [`World::run`],
    /// [`World::run_with_oracle_control`],
    /// [`World::run_with_oracle_control_all`], and [`World::run_recorded`]:
    /// one trajectory, every localizer of `localizers` stepped on it in
    /// lockstep, one log per localizer. Closed-loop control
    /// (`oracle_control == false`) steers from the first localizer, so its
    /// callers pass exactly one.
    ///
    /// Infallible by construction: a recorder write error aborts the run
    /// and is handed back in the second tuple slot instead of unwinding, so
    /// the recorder-less entry points stay panic-free (analysis rule R1)
    /// without a structurally-impossible `expect`.
    fn run_inner<L: Localizer + ?Sized>(
        &mut self,
        localizers: &mut [&mut L],
        duration: f64,
        oracle_control: bool,
        mut recorder: Option<&mut RunRecorder>,
    ) -> (Vec<SimLog>, Option<io::Error>) {
        for localizer in localizers.iter_mut() {
            localizer.reset(self.state.pose);
        }
        if let Some(fb) = self.faults.as_mut() {
            fb.reset();
        }
        let dt = self.config.physics_dt;
        let steps = (duration / dt).ceil() as usize;
        let odom_period = 1.0 / self.config.odom_hz;
        let lidar_period = 1.0 / self.config.lidar_hz;
        let control_period = 1.0 / self.config.control_hz;
        // The sensor schedule starts at the world clock, which keeps
        // counting across runs on one world.
        let start_time = self.time;
        let mut next_odom = start_time;
        let mut next_lidar = start_time + 0.5 * lidar_period; // offset: odom before scan
        let mut next_control = start_time;
        let mut cmd = DriveCommand::default();
        let mut logs: Vec<SimLog> = localizers.iter().map(|_| SimLog::default()).collect();
        let mut scan_counter = 0usize;
        let mut wheel_speed_estimate = 0.0;
        let mut crashed = false;
        for _ in 0..steps {
            if self.time + 1e-12 >= next_odom {
                next_odom += odom_period;
                // Odometry faults perturb what the encoders *report*; the
                // chassis itself is untouched.
                let mut observed = self.state;
                if let Some(fb) = self.faults.as_mut() {
                    let fx = fb.schedule.odom_effects(fb.scan_step);
                    if fx.stuck {
                        let (wheel, steer) = *fb
                            .stuck_capture
                            .get_or_insert((observed.wheel_speed, observed.steer));
                        observed.wheel_speed = wheel;
                        observed.steer = steer;
                    } else {
                        fb.stuck_capture = None;
                        observed.wheel_speed *= fx.slip_factor;
                    }
                }
                let odom = self.odometer.sample(&observed, odom_period, self.time);
                wheel_speed_estimate = odom.twist.vx;
                for (localizer, log) in localizers.iter_mut().zip(&mut logs) {
                    let t0 = Stopwatch::start();
                    localizer.predict(&odom);
                    let predict_seconds = t0.elapsed_seconds();
                    self.tel.record_span("sim.predict", predict_seconds);
                    log.predict_seconds_total += predict_seconds;
                    log.predict_calls += 1;
                }
            }
            if self.time + 1e-12 >= next_lidar {
                next_lidar += lidar_period;
                if let Some(fb) = self.faults.as_ref() {
                    if let Some(advance) = fb.schedule.kidnap_advance_at(fb.scan_step) {
                        // Kidnap: teleport the ground truth along the
                        // raceline, keeping the body-frame velocities — a
                        // collision relocates the car, it does not stop
                        // the wheels.
                        let (s, _) = self.track.raceline.project(self.state.pose.translation());
                        let s = self.track.raceline.wrap_s(s + advance);
                        let p = self.track.raceline.point_at(s);
                        self.state.pose = Pose2::new(p.x, p.y, self.track.raceline.heading_at(s));
                    }
                }
                let fault_fx = self
                    .faults
                    .as_ref()
                    .map(|fb| fb.schedule.scan_effects(fb.scan_step));
                // Map corruption swaps the caster; everything else leaves
                // the sweep itself untouched (ray casting draws no
                // randomness, so the swap cannot perturb the noise stream).
                let sweep_caster = match (&fault_fx, self.faults.as_ref()) {
                    (Some(fx), Some(fb)) if fx.corrupt_map => {
                        fb.corrupt_caster.as_ref().unwrap_or(&self.caster)
                    }
                    _ => &self.caster,
                };
                let mut scan = self.lidar.scan_with_threads(
                    self.state.pose,
                    sweep_caster,
                    self.config.threads,
                    self.time,
                );
                if let (Some(fx), Some(fb)) = (fault_fx, self.faults.as_mut()) {
                    fx.apply(
                        &mut scan.ranges,
                        self.config.lidar.max_range,
                        fb.schedule.seed(),
                        fb.scan_step,
                    );
                    if fx.delay_steps > 0 {
                        // Latency: the fresh scan joins the backlog and the
                        // oldest one is emitted (re-emitting the head while
                        // the backlog is still filling), so the localizer
                        // sees a stale stamp `delay_steps` corrections old.
                        fb.delay_queue.push_back(scan.clone());
                        let emitted = if fb.delay_queue.len() as u64 > fx.delay_steps {
                            fb.delay_queue.pop_front()
                        } else {
                            fb.delay_queue.front().cloned()
                        };
                        if let Some(stale) = emitted {
                            scan = stale;
                        }
                    } else {
                        fb.delay_queue.clear();
                    }
                    // Compute pressure scales the localizer's per-step
                    // budget (DESIGN.md §14) before the correction it
                    // gates; sensors are untouched. Delivered every step so
                    // the factor relaxes back to 1 when the window closes.
                    let factor = fb.schedule.budget_factor_at(fb.scan_step);
                    for localizer in localizers.iter_mut() {
                        localizer.set_compute_pressure(factor);
                    }
                    fb.tracker.record(&fb.schedule, fb.scan_step, &self.tel);
                    fb.scan_step += 1;
                }
                if self.tel.is_enabled() {
                    self.caster.publish_stats(&self.tel);
                }
                for (localizer, log) in localizers.iter_mut().zip(&mut logs) {
                    let t0 = Stopwatch::start();
                    let est = localizer.correct(&scan);
                    let correct_seconds = t0.elapsed_seconds();
                    self.tel.record_span("sim.correct", correct_seconds);
                    if let Some(rec) = recorder.as_deref_mut() {
                        let write = rec.record_step(&StepRecord {
                            step: log.samples.len() as u64,
                            stamp: self.time,
                            true_pose: self.state.pose,
                            est_pose: est,
                            correct_seconds,
                            diag: localizer.diagnostics(),
                        });
                        if let Err(e) = write {
                            finish_logs(&mut logs, self.time - start_time, crashed);
                            return (logs, Some(e));
                        }
                    }
                    log.samples.push(LogSample {
                        stamp: self.time,
                        true_pose: self.state.pose,
                        est_pose: est,
                        correct_seconds,
                        true_speed: self.state.speed(),
                        wheel_speed: self.state.wheel_speed,
                        health: localizer.health(),
                    });
                }
                if scan_counter.is_multiple_of(self.config.scan_log_stride) {
                    // Every log keeps the shared scan with its own estimate;
                    // the last one takes the original instead of a copy.
                    if let Some((last, rest)) = logs.split_last_mut() {
                        for log in rest {
                            log.keep_scan(self.time, scan.clone());
                        }
                        last.keep_scan(self.time, scan);
                    }
                }
                scan_counter += 1;
            }
            if self.time + 1e-12 >= next_control {
                next_control += control_period;
                let control_pose = match localizers.first() {
                    Some(localizer) if !oracle_control => localizer.pose(),
                    _ => self.state.pose,
                };
                cmd = self.pursuit.control(control_pose, wheel_speed_estimate);
            }
            // Grip variation: OU step dg = −g/τ·dt + σ·√(2dt/τ)·N(0,1).
            if self.config.grip_noise > 0.0 {
                let tau = 0.5;
                let sigma = self.config.grip_noise;
                self.grip_dev += -self.grip_dev / tau * dt
                    + sigma * (2.0 * dt / tau).sqrt() * self.grip_rng.gaussian();
                self.grip_dev = self.grip_dev.clamp(-0.25, 0.25);
                self.vehicle.params_mut().mu = self.config.vehicle.mu * (1.0 + self.grip_dev);
            }
            if self.tel.is_enabled() {
                let t0 = Stopwatch::start();
                self.state = self.vehicle.step(&self.state, &cmd, dt);
                self.tel.record_span("sim.physics", t0.elapsed_seconds());
            } else {
                self.state = self.vehicle.step(&self.state, &cmd, dt);
            }
            self.time += dt;
            if self
                .track
                .grid
                .state_at_world(self.state.pose.translation())
                != CellState::Free
            {
                crashed = true;
                break;
            }
        }
        finish_logs(&mut logs, self.time - start_time, crashed);
        (logs, None)
    }
}

/// Stamps the shared end-of-run fields onto every log of a run.
fn finish_logs(logs: &mut [SimLog], duration: f64, crashed: bool) {
    for log in logs {
        log.duration = duration;
        log.crashed = crashed;
    }
}

/// The log of a one-localizer run (empty if, impossibly, there is none).
fn only_log(logs: Vec<SimLog>) -> SimLog {
    logs.into_iter().next().unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use raceloc_core::localizer::DeadReckoning;
    use raceloc_map::{TrackShape, TrackSpec};

    fn oval_track() -> Track {
        TrackSpec::new(TrackShape::Oval {
            width: 12.0,
            height: 7.0,
        })
        .resolution(0.1)
        .build()
    }

    /// A "cheating" localizer that always reports the truth — used to test
    /// that the control stack can actually race the track.
    struct Oracle {
        pose: Pose2,
    }

    impl Localizer for Oracle {
        fn predict(&mut self, _odom: &raceloc_core::Odometry) {}
        fn correct(&mut self, _scan: &LaserScan) -> Pose2 {
            self.pose
        }
        fn pose(&self) -> Pose2 {
            self.pose
        }
        fn reset(&mut self, pose: Pose2) {
            self.pose = pose;
        }
        fn name(&self) -> &str {
            "oracle"
        }
    }

    /// Wraps the world to feed the oracle the true pose each step.
    fn run_with_oracle(world: &mut World, duration: f64) -> SimLog {
        // The oracle needs the true pose continuously; emulate by running in
        // short segments and syncing.
        let mut oracle = Oracle {
            pose: world.state().pose,
        };
        let mut log = SimLog::default();
        let seg = 0.05;
        let mut t = 0.0;
        while t < duration {
            oracle.pose = world.state().pose;
            let part = world.run(&mut oracle, seg);
            log.samples.extend(part.samples);
            log.crashed |= part.crashed;
            log.duration += part.duration;
            if log.crashed {
                break;
            }
            t += seg;
        }
        log
    }

    #[test]
    fn oracle_car_stays_on_track() {
        let mut world = World::new(oval_track(), WorldConfig::default());
        let log = run_with_oracle(&mut world, 20.0);
        assert!(!log.crashed, "car crashed with perfect localization");
        // It should be moving at racing speed by now.
        assert!(
            world.state().speed() > 2.0,
            "speed {}",
            world.state().speed()
        );
    }

    #[test]
    fn oracle_car_completes_a_lap() {
        let mut world = World::new(oval_track(), WorldConfig::default());
        let start = world.track().start_pose().translation();
        let mut best_progress = 0.0f64;
        let total = world.track().raceline.total_length();
        let mut returned = false;
        let mut left_start = false;
        for _ in 0..600 {
            let log = run_with_oracle(&mut world, 0.1);
            if log.crashed {
                panic!("crashed mid-lap");
            }
            let p = world.state().pose.translation();
            let d = p.dist(start);
            let (s, _) = world.track().raceline.project(p);
            best_progress = best_progress.max(s);
            if d > 3.0 {
                left_start = true;
            }
            if left_start && d < 1.0 && best_progress > 0.7 * total {
                returned = true;
                break;
            }
        }
        assert!(
            returned,
            "did not complete a lap (progress {best_progress:.1}/{total:.1})"
        );
    }

    #[test]
    fn dead_reckoning_accumulates_error() {
        let mut world = World::new(oval_track(), WorldConfig::default());
        let mut dr = DeadReckoning::new();
        let log = world.run(&mut dr, 10.0);
        assert!(!log.samples.is_empty());
        // Dead reckoning drifts; final error must exceed the noise floor
        // unless it crashed first (which is also evidence of drift).
        if !log.crashed {
            let last = log.samples.last().expect("non-empty");
            let err = last.true_pose.dist(last.est_pose);
            assert!(err > 0.01, "suspiciously perfect dead reckoning: {err}");
        }
    }

    #[test]
    fn log_rates_match_config() {
        let mut world = World::new(oval_track(), WorldConfig::default());
        let mut dr = DeadReckoning::new();
        let log = world.run(&mut dr, 2.0);
        if !log.crashed {
            // 2 s at 40 Hz → ~80 scan corrections.
            assert!(
                (log.samples.len() as i64 - 80).abs() <= 2,
                "{}",
                log.samples.len()
            );
            // 2 s at 50 Hz → ~100 predicts.
            assert!((log.predict_calls as i64 - 100).abs() <= 2);
            // Stride-4 scan retention.
            assert!((log.scans.len() as i64 - 20).abs() <= 2);
        }
    }

    #[test]
    fn back_to_back_runs_keep_the_sensor_rates() {
        // The world clock keeps counting across runs; each run's sensor
        // schedule must start from it, not from t = 0 (which would fire
        // every sensor on every physics step of a second run).
        let mut world = World::new(oval_track(), WorldConfig::default());
        let mut dr = DeadReckoning::new();
        let first = world.run(&mut dr, 2.0);
        let second = world.run(&mut dr, 2.0);
        assert_eq!(first.samples.len(), 80, "40 Hz lidar over 2 s");
        assert!(
            second.samples.len().abs_diff(first.samples.len()) <= 1,
            "second run: {} scans vs {} in the first",
            second.samples.len(),
            first.samples.len()
        );
        assert!(second.predict_calls.abs_diff(first.predict_calls) <= 1);
        assert!(second.samples[0].stamp >= 2.0, "stamps continue the clock");
    }

    #[test]
    fn runs_are_deterministic() {
        let run = || {
            let mut world = World::new(oval_track(), WorldConfig::default());
            let mut dr = DeadReckoning::new();
            let log = world.run(&mut dr, 3.0);
            log.samples
                .iter()
                .map(|s| (s.true_pose, s.est_pose))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn runs_are_bitwise_identical_across_thread_counts() {
        let run = |threads: usize| {
            let cfg = WorldConfig {
                threads,
                ..WorldConfig::default()
            };
            let mut world = World::new(oval_track(), cfg);
            let mut dr = DeadReckoning::new();
            let log = world.run(&mut dr, 2.0);
            let spawned = world.pool_stats().is_some();
            let scans: Vec<_> = log
                .scans
                .iter()
                .map(|(t, est, scan)| (*t, *est, scan.ranges.clone()))
                .collect();
            let poses: Vec<_> = log
                .samples
                .iter()
                .map(|s| (s.true_pose, s.est_pose))
                .collect();
            (poses, scans, spawned)
        };
        let (poses1, scans1, spawned1) = run(1);
        assert!(!spawned1, "threads=1 must never spawn a pool");
        for threads in [2usize, 4] {
            let (poses, scans, spawned) = run(threads);
            assert_eq!(poses, poses1, "trajectory diverged at threads={threads}");
            assert_eq!(scans, scans1, "scans diverged at threads={threads}");
            assert!(spawned, "threads={threads} should use the pool");
        }
    }

    #[test]
    fn lower_grip_produces_larger_odometry_drift() {
        let drift = |mu: f64| {
            let mut cfg = WorldConfig::default();
            cfg.vehicle.mu = mu;
            let mut world = World::new(oval_track(), cfg);
            let mut dr = DeadReckoning::new();
            let log = world.run(&mut dr, 12.0);
            let n = log.samples.len().min(400);
            // Mean estimate error over the common prefix.
            log.samples[..n]
                .iter()
                .map(|s| s.true_pose.dist(s.est_pose))
                .sum::<f64>()
                / n as f64
        };
        let hq = drift(1.0);
        let lq = drift(19.0 / 26.0);
        assert!(
            lq > hq,
            "low-grip odometry should drift more: lq={lq} hq={hq}"
        );
    }

    #[test]
    fn run_recorded_streams_steps_and_telemetry() {
        let mut world = World::new(oval_track(), WorldConfig::default());
        let tel = Telemetry::enabled();
        world.set_telemetry(tel.clone());
        let buf = raceloc_obs::SharedBuffer::new();
        let mut rec = RunRecorder::new(buf.clone());
        let mut dr = DeadReckoning::new();
        let log = world.run_recorded(&mut dr, 1.0, &mut rec).unwrap();

        // One JSONL step per logged correction, identical content.
        let text = buf.contents();
        let steps = raceloc_obs::parse_steps(&text).unwrap();
        assert_eq!(steps.len(), log.samples.len());
        assert_eq!(rec.steps_written() as usize, log.samples.len());
        for (rec, sample) in steps.iter().zip(&log.samples) {
            assert_eq!(rec.true_pose, sample.true_pose);
            assert_eq!(rec.est_pose, sample.est_pose);
            // Dead reckoning reports its fixed diagnostics.
            assert_eq!(rec.diag.particles, Some(1));
        }
        let meta = raceloc_obs::Json::parse(text.lines().next().unwrap()).unwrap();
        assert_eq!(
            meta.get("localizer").and_then(raceloc_obs::Json::as_str),
            Some("dead-reckoning")
        );

        // The loop's own spans were recorded.
        let snap = tel.snapshot();
        let correct = snap.span("sim.correct").expect("sim.correct span");
        assert_eq!(correct.count as usize, log.samples.len());
        let predict = snap.span("sim.predict").expect("sim.predict span");
        assert_eq!(predict.count as usize, log.predict_calls);
        assert!(snap.span("sim.physics").is_some());
    }

    #[test]
    #[should_panic(expected = "rates must be positive")]
    fn zero_rate_panics() {
        let cfg = WorldConfig {
            lidar_hz: 0.0,
            ..WorldConfig::default()
        };
        World::new(oval_track(), cfg);
    }

    // ---- fault-injection wiring -------------------------------------------

    use raceloc_faults::MapRegion;

    /// Runs dead reckoning under oracle control with every scan logged.
    fn fault_log(schedule: Option<FaultSchedule>, threads: usize, duration: f64) -> SimLog {
        let cfg = WorldConfig {
            threads,
            scan_log_stride: 1,
            ..WorldConfig::default()
        };
        let mut world = World::new(oval_track(), cfg);
        if let Some(s) = schedule {
            world.set_fault_schedule(s);
        }
        let mut dr = DeadReckoning::new();
        world.run_with_oracle_control(&mut dr, duration)
    }

    /// The deterministic content of a log (drops the wall-clock timings).
    #[allow(clippy::type_complexity)]
    fn log_key(log: &SimLog) -> (Vec<(Pose2, Pose2, Health)>, Vec<(f64, Pose2, Vec<f64>)>) {
        (
            log.samples
                .iter()
                .map(|s| (s.true_pose, s.est_pose, s.health))
                .collect(),
            log.scans
                .iter()
                .map(|(t, e, sc)| (*t, *e, sc.ranges.clone()))
                .collect(),
        )
    }

    #[test]
    fn empty_schedule_matches_no_schedule_bitwise() {
        let a = fault_log(None, 1, 1.0);
        let empty = FaultSchedule::builder().build().unwrap();
        let b = fault_log(Some(empty), 1, 1.0);
        assert_eq!(log_key(&a), log_key(&b));
        // Localizers without health monitoring report Nominal throughout.
        assert!(a.samples.iter().all(|s| s.health == Health::Nominal));
    }

    #[test]
    fn blackout_window_invalidates_logged_scans() {
        let s = FaultSchedule::builder()
            .lidar_blackout(5, 15)
            .build()
            .unwrap();
        let log = fault_log(Some(s), 1, 1.0);
        assert!(!log.crashed);
        assert!(log.scans.len() > 20);
        for (i, (_, _, scan)) in log.scans.iter().enumerate() {
            let dark = scan.ranges.iter().all(|r| r.is_infinite());
            if (5..15).contains(&i) {
                assert!(dark, "step {i} should be blacked out");
            } else {
                assert!(!dark, "step {i} should see the track");
            }
        }
    }

    #[test]
    fn kidnap_teleports_ground_truth_along_raceline() {
        let s = FaultSchedule::builder()
            .pose_kidnap(20, 3.0)
            .build()
            .unwrap();
        let log = fault_log(Some(s), 1, 1.0);
        assert!(log.samples.len() > 21);
        let prev = log.samples[18].true_pose;
        let before = log.samples[19].true_pose;
        let after = log.samples[20].true_pose;
        // Nominal consecutive corrections move centimetres early in a run;
        // the kidnap jumps metres.
        assert!(before.dist(prev) < 0.5);
        assert!(after.dist(before) > 1.0, "jump {}", after.dist(before));
        // The teleport target is on the track (the run did not crash here).
        assert!(!log.crashed);
    }

    #[test]
    fn latency_emits_stale_scans_inside_the_window() {
        let s = FaultSchedule::builder().latency(10, 30, 4).build().unwrap();
        let log = fault_log(Some(s), 1, 1.0);
        // Backlog full at step 20: the emitted scan is 4 corrections old.
        let (stamp, _, scan) = &log.scans[20];
        assert!(
            stamp - scan.stamp > 3.0 * 0.025,
            "scan not stale: emitted {stamp} generated {}",
            scan.stamp
        );
        // Outside the window scans are live again.
        let (stamp, _, scan) = &log.scans[35];
        assert_eq!(*stamp, scan.stamp);
    }

    #[test]
    fn stuck_encoder_freezes_dead_reckoning() {
        // Encoder stuck at standstill from step 0: the car accelerates away
        // but dead reckoning integrates a frozen zero speed.
        let s = FaultSchedule::builder()
            .stuck_encoder(0, 10_000)
            .build()
            .unwrap();
        let log = fault_log(Some(s), 1, 2.0);
        let start = log.samples[0].true_pose;
        let last = log.samples.last().unwrap();
        assert!(last.true_pose.dist(start) > 2.0, "car did not move");
        assert!(
            last.est_pose.dist(start) < 0.5,
            "frozen encoder should pin the estimate, moved {}",
            last.est_pose.dist(start)
        );
    }

    #[test]
    fn odom_slip_inflates_dead_reckoning_error() {
        let s = FaultSchedule::builder()
            .odom_slip(0, 10_000, 1.6)
            .build()
            .unwrap();
        let err = |log: &SimLog| {
            let l = log.samples.last().unwrap();
            l.true_pose.dist(l.est_pose)
        };
        let slip = fault_log(Some(s), 1, 3.0);
        let nominal = fault_log(None, 1, 3.0);
        assert!(
            err(&slip) > 2.0 * err(&nominal),
            "slip {} vs nominal {}",
            err(&slip),
            err(&nominal)
        );
    }

    #[test]
    fn map_corruption_changes_scans_only_inside_the_window() {
        let track = oval_track();
        let start = track.start_pose();
        // A phantom obstacle 1.5 m ahead of the (initially resting) car.
        let ahead = start * Pose2::new(1.5, 0.0, 0.0);
        let region = MapRegion {
            x0: ahead.x - 0.3,
            y0: ahead.y - 0.3,
            x1: ahead.x + 0.3,
            y1: ahead.y + 0.3,
        };
        let s = FaultSchedule::builder()
            .map_corruption(2, 6, region)
            .build()
            .unwrap();
        let faulty = fault_log(Some(s), 1, 0.5);
        let nominal = fault_log(None, 1, 0.5);
        assert_ne!(
            faulty.scans[3].2.ranges, nominal.scans[3].2.ranges,
            "the corrupted map must change the scan"
        );
        assert_eq!(
            faulty.scans[8].2.ranges, nominal.scans[8].2.ranges,
            "outside the window the true map is used"
        );
    }

    #[test]
    fn fault_activity_is_booked_into_telemetry() {
        let mut world = World::new(oval_track(), WorldConfig::default());
        let tel = Telemetry::enabled();
        world.set_telemetry(tel.clone());
        world.set_fault_schedule(
            FaultSchedule::builder()
                .lidar_blackout(3, 7)
                .build()
                .unwrap(),
        );
        assert!(world.fault_schedule().is_some());
        let mut dr = DeadReckoning::new();
        world.run_with_oracle_control(&mut dr, 0.5);
        let snap = tel.snapshot();
        assert_eq!(snap.counter("faults.lidar_blackout.activations"), Some(1));
        assert_eq!(snap.counter("faults.lidar_blackout.steps"), Some(4));
        world.clear_fault_schedule();
        assert!(world.fault_schedule().is_none());
    }

    /// Records the compute-pressure factor in force at every correction.
    struct PressureProbe {
        inner: DeadReckoning,
        factors: Vec<f64>,
        current: f64,
    }

    impl Localizer for PressureProbe {
        fn predict(&mut self, odom: &raceloc_core::Odometry) {
            self.inner.predict(odom);
        }
        fn correct(&mut self, scan: &LaserScan) -> Pose2 {
            self.factors.push(self.current);
            self.inner.correct(scan)
        }
        fn pose(&self) -> Pose2 {
            self.inner.pose()
        }
        fn reset(&mut self, pose: Pose2) {
            self.inner.reset(pose);
        }
        fn name(&self) -> &str {
            "pressure-probe"
        }
        fn set_compute_pressure(&mut self, factor: f64) {
            self.current = factor;
        }
    }

    #[test]
    fn compute_pressure_reaches_the_localizer_and_telemetry() {
        let mut world = World::new(oval_track(), WorldConfig::default());
        let tel = Telemetry::enabled();
        world.set_telemetry(tel.clone());
        world.set_fault_schedule(
            FaultSchedule::builder()
                .compute_pressure(5, 12, 0.5)
                .build()
                .unwrap(),
        );
        let mut probe = PressureProbe {
            inner: DeadReckoning::new(),
            factors: Vec::new(),
            current: 1.0,
        };
        let log = world.run_with_oracle_control(&mut probe, 0.6);
        assert!(!log.crashed);
        assert!(probe.factors.len() > 15);
        for (i, f) in probe.factors.iter().enumerate() {
            // The factor for step N is installed before step N's correct
            // call, so it gates exactly the corrections in the window.
            let expected = if (5..12).contains(&i) { 0.5 } else { 1.0 };
            assert_eq!(*f, expected, "factor at correction {i}");
        }
        let snap = tel.snapshot();
        assert_eq!(snap.counter("faults.compute_pressure.activations"), Some(1));
        assert_eq!(snap.counter("faults.compute_pressure.steps"), Some(7));
    }

    #[test]
    fn fault_runs_are_bitwise_identical_across_thread_counts() {
        let schedule = || {
            FaultSchedule::builder()
                .seed(7)
                .beam_dropout(2, 30, 0.4)
                .lidar_blackout(10, 13)
                .range_bias(15, 25, 0.2)
                .range_scale(15, 25, 1.04)
                .odom_slip(0, 20, 1.3)
                .latency(26, 34, 3)
                .pose_kidnap(30, 2.0)
                .build()
                .unwrap()
        };
        let run = |threads| log_key(&fault_log(Some(schedule()), threads, 1.0));
        let base = run(1);
        for threads in [2usize, 4] {
            assert_eq!(
                run(threads),
                base,
                "fault run diverged at threads={threads}"
            );
        }
    }
}
