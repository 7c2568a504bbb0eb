//! Sensor measurement types shared by the simulator and the localizers.

use crate::{Pose2, Twist2};

/// One 2-D LiDAR sweep.
///
/// Beam `i` points along `angle_min + i * angle_increment` in the *sensor*
/// frame; `ranges[i]` is the measured distance in meters. Valid returns are
/// clamped to `[0, max_range]` by the producer; a range equal to
/// `max_range` means "no return within the envelope" (saturation), and a
/// non-finite range (`f64::INFINITY`) tags a *dropped/invalid* beam —
/// sensor models must skip invalid beams rather than score them.
///
/// # Examples
///
/// ```
/// use raceloc_core::sensor_data::LaserScan;
///
/// let scan = LaserScan::new(-1.0, 0.5, vec![2.0, 3.0, 4.0, 5.0, 4.0], 10.0);
/// assert_eq!(scan.len(), 5);
/// assert!((scan.angle_of(2) - 0.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LaserScan {
    /// Angle of beam 0 in the sensor frame \[rad\].
    pub angle_min: f64,
    /// Angular spacing between consecutive beams \[rad\].
    pub angle_increment: f64,
    /// Measured ranges \[m\], one per beam.
    pub ranges: Vec<f64>,
    /// Sensor maximum range \[m\]; `ranges[i] >= max_range` means no return.
    pub max_range: f64,
    /// Measurement timestamp \[s\].
    pub stamp: f64,
}

impl LaserScan {
    /// Creates a scan (stamp 0); see the type docs for field meanings.
    pub fn new(angle_min: f64, angle_increment: f64, ranges: Vec<f64>, max_range: f64) -> Self {
        Self {
            angle_min,
            angle_increment,
            ranges,
            max_range,
            stamp: 0.0,
        }
    }

    /// Number of beams.
    #[inline]
    pub fn len(&self) -> usize {
        self.ranges.len()
    }

    /// True when the scan has no beams.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }

    /// The sensor-frame angle of beam `i`.
    #[inline]
    pub fn angle_of(&self, i: usize) -> f64 {
        self.angle_min + i as f64 * self.angle_increment
    }

    /// Iterates over `(angle, range)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        self.ranges
            .iter()
            .enumerate()
            .map(|(i, &r)| (self.angle_of(i), r))
    }

    /// Iterates over only the beams that returned (range < max_range),
    /// yielding `(angle, range)`.
    pub fn valid_returns(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        let cutoff = self.max_range - 1e-9;
        self.iter().filter(move |&(_, r)| r < cutoff && r > 0.0)
    }

    /// Converts one `(angle, range)` return to a Cartesian point in the
    /// sensor frame.
    #[inline]
    pub fn return_point((angle, range): (f64, f64)) -> crate::Point2 {
        crate::Point2::new(range * angle.cos(), range * angle.sin())
    }

    /// Converts returned beams to Cartesian points in the sensor frame.
    pub fn to_points(&self) -> Vec<crate::Point2> {
        self.valid_returns().map(Self::return_point).collect()
    }
}

/// An integrated wheel-odometry measurement.
///
/// `pose` lives in the arbitrary *odometry frame* (it drifts); localizers
/// consume the *relative motion* between successive samples. `twist` carries
/// the instantaneous body velocities the TUM motion model needs.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Odometry {
    /// Integrated pose in the odometry frame.
    pub pose: Pose2,
    /// Instantaneous body-frame velocity estimate.
    pub twist: Twist2,
    /// Measurement timestamp \[s\].
    pub stamp: f64,
}

impl Odometry {
    /// Creates a sample.
    pub fn new(pose: Pose2, twist: Twist2, stamp: f64) -> Self {
        Self { pose, twist, stamp }
    }
}

/// A single IMU reading (planar subset).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ImuSample {
    /// Yaw rate \[rad/s\].
    pub yaw_rate: f64,
    /// Longitudinal acceleration \[m/s²\].
    pub accel_x: f64,
    /// Lateral acceleration \[m/s²\].
    pub accel_y: f64,
    /// Measurement timestamp \[s\].
    pub stamp: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn angles_are_affine() {
        let s = LaserScan::new(-1.5, 0.25, vec![1.0; 13], 10.0);
        assert_eq!(s.angle_of(0), -1.5);
        assert!((s.angle_of(12) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn valid_returns_filters_max_range_and_zero() {
        let s = LaserScan::new(0.0, 0.1, vec![5.0, 10.0, 0.0, 3.0], 10.0);
        let v: Vec<(f64, f64)> = s.valid_returns().collect();
        assert_eq!(v.len(), 2);
        assert_eq!(v[0].1, 5.0);
        assert_eq!(v[1].1, 3.0);
    }

    #[test]
    fn to_points_in_sensor_frame() {
        let s = LaserScan::new(0.0, std::f64::consts::FRAC_PI_2, vec![2.0, 3.0], 10.0);
        let pts = s.to_points();
        assert!((pts[0].x - 2.0).abs() < 1e-12 && pts[0].y.abs() < 1e-12);
        assert!(pts[1].x.abs() < 1e-12 && (pts[1].y - 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_scan() {
        let s = LaserScan::new(0.0, 0.1, vec![], 10.0);
        assert!(s.is_empty());
        assert_eq!(s.to_points().len(), 0);
    }

    #[test]
    fn odometry_roundtrip_fields() {
        let o = Odometry::new(Pose2::new(1.0, 2.0, 0.5), Twist2::new(3.0, 0.0, 0.1), 4.2);
        assert_eq!(o.stamp, 4.2);
        assert_eq!(o.twist.vx, 3.0);
    }
}
